"""Dense bit vector with windowed reads and access accounting.

:class:`BitArray` is the storage primitive under every filter in this
library.  Besides the usual single-bit operations it offers *windowed*
reads and writes — fetch ``nbits`` consecutive bits as one integer, or set
several bits at fixed offsets from a base position — which is exactly the
access pattern the shifting framework is built around: one byte-aligned
word fetch yields both the existence bit and the auxiliary (shifted) bit.

Each operation can be routed through a :class:`~repro.bitarray.memory.
MemoryModel` so experiment harnesses can count word-granular traffic the
same way the paper does.  Accounting reflects *logical* accesses: a windowed
read is billed as one operation whose word cost depends on its span, while
two separate :meth:`BitArray.test` calls are billed as two operations.

The backing store is a ``bytearray`` addressed LSB-first (bit ``i`` lives
in byte ``i // 8`` at in-byte position ``i % 8``), which matches the
little-endian byte-addressable model in §3.1 of the paper and keeps
windowed extraction a shift-and-mask on an ``int``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro._util import require_positive
from repro._vector import as_batch_int64, row_spans, word_costs
from repro.bitarray.memory import MemoryModel
from repro.errors import ConfigurationError

__all__ = ["BitArray"]


#: Positions per sparse :func:`_or_bits` chunk.  Bounds the sparse
#: branch's temporaries (about 20 bytes per position) at roughly
#: 1.3 MB for any batch size.
_OR_CHUNK = 1 << 16

#: Largest buffer, in bits, the dense branch flags: one ``bool`` per
#: bit, so its flag array stays at 2 MiB.
_DENSE_MAX_BITS = 1 << 21

#: The dense branch runs on batches of at least one position per this
#: many bits of the buffer.  The measured crossover of the two branches
#: is one position per about 64 bits on a 2^21-bit buffer and per about
#: 100 on 2^19 to 2^20 bits; on smaller buffers dense wins below one
#: per 256.
_DENSE_BITS_PER_POSITION = 64


def _or_bits(view: np.ndarray, positions: np.ndarray) -> None:
    """Set bit ``p`` of the LSB-first byte buffer *view* for each *p*.

    The scatter-OR under the batch write kernels; *positions* is not
    modified.  Two branches, chosen by the batch's density:

    * **Dense** (a buffer of at most ``_DENSE_MAX_BITS`` bits and at
      least one position per ``_DENSE_BITS_PER_POSITION`` of them):
      scatter ``True`` into one ``bool`` flag per bit, pack the flags
      LSB-first and OR them into the buffer once.
    * **Sparse** (otherwise), chunk by chunk: one fancy
      ``view[byte] |= mask``, then a re-read of ``view[byte] & mask``
      finds the positions whose bit was lost to another write of the
      same byte, and only those are written again.  Of the writes to
      one byte exactly one lands, so each round sets at least one
      missing bit of every byte still owed one: at most eight rounds,
      whatever the duplicates.
    """
    nbits = view.size * 8
    if (nbits <= _DENSE_MAX_BITS
            and len(positions) * _DENSE_BITS_PER_POSITION >= nbits):
        flags = np.zeros(nbits, dtype=bool)
        flags[positions] = True
        view |= np.packbits(flags, bitorder="little")
        return
    for start in range(0, len(positions), _OR_CHUNK):
        chunk = positions[start:start + _OR_CHUNK]
        byte = chunk >> 3
        mask = np.left_shift(np.uint8(1), (chunk & 7).astype(np.uint8))
        while True:
            view[byte] |= mask
            lost = (view[byte] & mask) == 0
            if not lost.any():
                break
            byte = byte[lost]
            mask = mask[lost]


class BitArray:
    """A fixed-size array of bits supporting windowed access.

    Args:
        nbits: number of addressable bits.  Filters typically allocate
            ``m + slack`` bits where ``slack`` absorbs the maximum offset so
            shifted positions never wrap (§3.1 extends the array to
            ``m + w_bar`` bits for this reason).
        memory: optional access-cost model.  When provided, every recorded
            operation updates ``memory.stats``; when omitted, a private
            model is created so accounting is always available.

    Example:
        >>> bits = BitArray(128)
        >>> bits.set(3); bits.set(10)
        >>> bits.test(3), bits.test(4)
        (True, False)
        >>> bin(bits.read_window(3, 8))  # bits 3..10 as an int, LSB first
        '0b10000001'
    """

    __slots__ = ("_nbits", "_buf", "memory")

    def __init__(self, nbits: int, memory: Optional[MemoryModel] = None):
        require_positive("nbits", nbits)
        self._nbits = nbits
        self._buf = bytearray((nbits + 7) // 8)
        self.memory = memory if memory is not None else MemoryModel()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._nbits

    @property
    def nbits(self) -> int:
        """Number of addressable bits."""
        return self._nbits

    @property
    def nbytes(self) -> int:
        """Size of the backing buffer in bytes."""
        return len(self._buf)

    def count(self) -> int:
        """Number of set bits (population count)."""
        return int.from_bytes(self._buf, "little").bit_count()

    def fill_ratio(self) -> float:
        """Fraction of bits set, in ``[0, 1]``."""
        return self.count() / self._nbits

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self._nbits:
            raise IndexError(
                "bit index %d out of range for BitArray of %d bits"
                % (i, self._nbits)
            )

    # ------------------------------------------------------------------
    # Single-bit operations
    # ------------------------------------------------------------------
    def set(self, i: int, record: bool = True) -> None:
        """Set bit *i* to 1 (one recorded write)."""
        self._check_index(i)
        if record:
            self.memory.record_write(i, 1)
        self._buf[i >> 3] |= 1 << (i & 7)

    def clear(self, i: int, record: bool = True) -> None:
        """Set bit *i* to 0 (one recorded write)."""
        self._check_index(i)
        if record:
            self.memory.record_write(i, 1)
        self._buf[i >> 3] &= ~(1 << (i & 7)) & 0xFF

    def test(self, i: int, record: bool = True) -> bool:
        """Return whether bit *i* is set (one recorded read)."""
        self._check_index(i)
        if record:
            self.memory.record_read(i, 1)
        return bool(self._buf[i >> 3] >> (i & 7) & 1)

    def peek(self, i: int) -> bool:
        """Return bit *i* without touching the access statistics.

        Tests and invariants use this to observe state without perturbing
        the traffic counters that experiments measure.
        """
        self._check_index(i)
        return bool(self._buf[i >> 3] >> (i & 7) & 1)

    def __getitem__(self, i: int) -> bool:
        return self.peek(i)

    # ------------------------------------------------------------------
    # Windowed operations — the shifting framework's primitive
    # ------------------------------------------------------------------
    def read_window(self, start: int, nbits: int, record: bool = True) -> int:
        """Read ``nbits`` consecutive bits starting at *start* as an int.

        Bit ``j`` of the result equals bit ``start + j`` of the array.
        Billed as one logical read whose word cost is
        ``memory.read_cost(start, nbits)`` — one fetch when the span fits a
        byte-aligned word, which is what the offset bound guarantees for
        shifted pairs.
        """
        self._check_index(start)
        require_positive("nbits", nbits)
        end = start + nbits
        if end > self._nbits:
            raise IndexError(
                "window [%d, %d) exceeds BitArray of %d bits"
                % (start, end, self._nbits)
            )
        if record:
            self.memory.record_read(start, nbits)
        first = start >> 3
        last = (end - 1) >> 3
        chunk = int.from_bytes(self._buf[first : last + 1], "little")
        return (chunk >> (start & 7)) & ((1 << nbits) - 1)

    def test_offsets(
        self, start: int, offsets: Sequence[int], record: bool = True
    ) -> tuple[bool, ...]:
        """Test the bits at ``start + o`` for each offset, as one read.

        This is the query-side primitive of the shifting framework: ShBF_M
        checks ``(h_i(e), h_i(e) + o(e))`` and ShBF_A checks
        ``(h_i(e), h_i(e) + o1(e), h_i(e) + o2(e))`` with a single windowed
        fetch each.
        """
        if not offsets:
            return ()
        span = max(offsets) + 1
        end = start + span
        self._check_index(start)
        if end > self._nbits:
            raise IndexError(
                "window [%d, %d) exceeds BitArray of %d bits"
                % (start, end, self._nbits)
            )
        if record:
            # Billed as ONE read of the whole span — the word fetch the
            # modelled hardware performs; the byte-indexed extraction
            # below is just the fastest CPython way to pick bits out of
            # that (conceptually fetched) word.
            self.memory.record_read(start, span)
        buf = self._buf
        return tuple(
            bool(buf[(start + o) >> 3] >> ((start + o) & 7) & 1)
            for o in offsets
        )

    def test_pair(self, start: int, offset: int, record: bool = True) -> bool:
        """Whether bits ``start`` and ``start + offset`` are both set.

        The ShBF_M inner loop, specialised: one billed read covering the
        pair's span, two direct byte probes.  Equivalent to
        ``all(test_offsets(start, (0, offset)))`` but cheap enough that
        wall-clock speed experiments measure the modelled costs rather
        than Python tuple plumbing.
        """
        end = start + offset
        if start < 0 or end >= self._nbits or offset < 0:
            self._check_index(start)
            self._check_index(end)
        if record:
            self.memory.record_read(start, offset + 1)
        buf = self._buf
        return bool(
            buf[start >> 3] >> (start & 7)
            & buf[end >> 3] >> (end & 7) & 1
        )

    def test_triple(
        self, start: int, o1: int, o2: int, record: bool = True
    ) -> tuple:
        """Bits at ``start``, ``start + o1``, ``start + o2`` as bools.

        The ShBF_A inner loop, specialised like :meth:`test_pair`
        (``0 < o1 < o2`` by the offset policy's construction).
        """
        end = start + o2
        if start < 0 or end >= self._nbits or not 0 < o1 < o2:
            self._check_index(start)
            self._check_index(end)
            if not 0 < o1 < o2:
                raise IndexError("offsets must satisfy 0 < o1 < o2")
        if record:
            self.memory.record_read(start, o2 + 1)
        buf = self._buf
        mid = start + o1
        return (
            bool(buf[start >> 3] >> (start & 7) & 1),
            bool(buf[mid >> 3] >> (mid & 7) & 1),
            bool(buf[end >> 3] >> (end & 7) & 1),
        )

    def set_offsets(
        self, start: int, offsets: Iterable[int], record: bool = True
    ) -> None:
        """Set the bits at ``start + o`` for each offset, as one write.

        Mirrors :meth:`test_offsets` for the construction phase: the member
        and shifted bits land in one word, so the paper bills the pair as a
        single write access.
        """
        offsets = tuple(offsets)
        if not offsets:
            return
        span = max(offsets) + 1
        end = start + span
        self._check_index(start)
        if end > self._nbits:
            raise IndexError(
                "window [%d, %d) exceeds BitArray of %d bits"
                % (start, end, self._nbits)
            )
        if record:
            self.memory.record_write(start, span)
        buf = self._buf
        for o in offsets:
            i = start + o
            buf[i >> 3] |= 1 << (i & 7)

    # ------------------------------------------------------------------
    # Batch kernels — NumPy bulk operations over the same buffer
    # ------------------------------------------------------------------
    # Each kernel is the vectorised twin of a scalar operation above:
    # same bits touched, and (when ``record`` is true) the same logical
    # accounting — n probes bill n ops, recorded in one call, and the
    # words :meth:`_bill_words` totals: n when the batch's widest span
    # fits one word from any bit (``word_costs``, the paper's ``w_bar``
    # bound), else the sum of ``memory.read_cost_batch``, access by
    # access.
    # Query paths that need the scalar loops' *early-exit* billing call
    # the kernels with ``record=False`` and bill what they probed
    # themselves.  The write kernels share one scatter-OR, :func:`_or_bits`.

    def as_numpy(self) -> np.ndarray:
        """Zero-copy ``uint8`` view of the backing buffer.

        The backing store is a ``bytearray`` (or, for an array built by
        :meth:`attach_readonly`, a read-only ``memoryview`` over an
        external buffer); the view's writeable flag tracks the backing
        buffer.  The batch write kernels do not rely on that flag alone:
        they refuse a read-only array with :meth:`_check_writable` before
        touching any byte.
        """
        return np.frombuffer(self._buf, dtype=np.uint8)

    def _check_batch(self, positions: np.ndarray) -> None:
        if positions.size == 0:
            return
        lo = int(positions.min())
        hi = int(positions.max())
        if lo < 0 or hi >= self._nbits:
            bad = lo if lo < 0 else hi
            raise IndexError(
                "bit index %d out of range for BitArray of %d bits"
                % (bad, self._nbits)
            )

    def test_bits_batch(self, positions, record: bool = True) -> np.ndarray:
        """Vectorised :meth:`test`: a boolean per position.

        When recording, bills one single-bit read per position — exactly
        a scalar ``test`` loop without early exit.
        """
        positions = as_batch_int64(positions)
        self._check_batch(positions)
        if record and positions.size:
            self.memory.record_reads(
                positions.size, self._bill_words(positions, 1))
        view = self.as_numpy()
        return ((view[positions >> 3] >> (positions & 7)) & 1).astype(bool)

    def test_pairs_batch(self, bases, offsets,
                         record: bool = True) -> np.ndarray:
        """Vectorised :meth:`test_pair`: both bits of each pair set?

        ``bases`` and ``offsets`` broadcast together; each pair is billed
        (when recording) as one read spanning ``offset + 1`` bits from
        its base, matching the scalar pair billing.
        """
        bases, offsets, ends = self._pair_operands(bases, offsets)
        if record and bases.size:
            self.memory.record_reads(
                bases.size, self._bill_words(bases, offsets + 1))
        view = self.as_numpy()
        first = view[bases >> 3] >> (bases & 7)
        second = view[ends >> 3] >> (ends & 7)
        return ((first & second) & 1).astype(bool)

    def _pair_operands(self, bases, offsets):
        """``(bases, offsets, ends)`` of a pair kernel, bounds-checked.

        Broadcasts *bases* and *offsets* together when their shapes
        differ.  Offsets are non-negative, so ``min(bases) >= 0`` and
        ``max(ends) < nbits`` put every base and every end in range;
        :meth:`_check_batch` runs only when that bound fails, to raise
        its own error for the offending index.
        """
        bases = as_batch_int64(bases)
        offsets = as_batch_int64(offsets)
        if bases.shape != offsets.shape:
            bases, offsets = np.broadcast_arrays(bases, offsets)
        ends = bases + offsets
        if bases.size:
            if int(offsets.min()) < 0:
                raise IndexError("pair offsets must be non-negative")
            if int(bases.min()) < 0 or int(ends.max()) >= self._nbits:
                self._check_batch(bases)
                self._check_batch(ends)
        return bases, offsets, ends

    def _bill_words(self, starts, spans) -> int:
        """Word fetches of one access of ``spans`` bits per start.

        *starts* is a non-empty array and *spans* an int or an array of
        its shape; :func:`word_costs` decides whether each access costs
        one word or its exact ``read_cost_batch`` cost.
        """
        costs = word_costs(self.memory, starts, spans)
        if isinstance(costs, int):
            return starts.size * costs
        return int(costs.sum())

    def test_offsets_batch(self, bases, offsets,
                           record: bool = True) -> np.ndarray:
        """Vectorised :meth:`test_offsets`: bits at ``base + o`` per row.

        ``bases`` has shape ``(n,)`` and ``offsets`` ``(n, g)`` or
        ``(g,)``; returns an ``(n, g)`` boolean matrix.  Each row is
        billed as one read spanning its largest offset, like the scalar
        windowed fetch.  An empty group (``g == 0``) reads nothing and
        bills nothing, like ``test_offsets(base, ())``.
        """
        bases = as_batch_int64(bases)
        offsets = np.atleast_2d(as_batch_int64(offsets))
        if offsets.shape[-1] == 0:
            return np.zeros((bases.size, 0), dtype=bool)
        positions = bases[:, None] + offsets
        self._check_batch(bases)
        self._check_batch(positions)
        if record and bases.size:
            self.memory.record_reads(
                bases.size,
                self._bill_words(bases, row_spans(offsets, bases.size)))
        view = self.as_numpy()
        return ((view[positions >> 3] >> (positions & 7)) & 1).astype(bool)

    def _check_writable(self) -> None:
        # Refuse an attached shared segment up front, with the same
        # error type as the scalar ops' memoryview, before any byte
        # changes or any write is billed.
        if self.readonly:
            raise TypeError(
                "BitArray is read-only (attached to an external "
                "buffer); writes must go to the owning writer")

    def set_bits_batch(self, positions, record: bool = True) -> None:
        """Vectorised :meth:`set`: one recorded write per position."""
        self._check_writable()
        positions = as_batch_int64(positions).ravel()
        self._check_batch(positions)
        if positions.size == 0:
            return
        if record:
            self.memory.record_writes(
                positions.size, self._bill_words(positions, 1))
        _or_bits(self.as_numpy(), positions)

    def set_offsets_batch(self, bases, offsets,
                          record: bool = True) -> None:
        """Vectorised :meth:`set_offsets` over ``(n,)`` bases.

        ``offsets`` is ``(n, g)`` or ``(g,)``; sets the bits
        ``base + o`` for every offset of the row, billing one write per
        base spanning the row's largest offset — the construction-phase
        accounting of the shifting framework.  An empty group
        (``g == 0``) writes and bills nothing, like the scalar twin.
        """
        self._check_writable()
        bases = as_batch_int64(bases)
        offsets = np.atleast_2d(as_batch_int64(offsets))
        if bases.size == 0 or offsets.shape[-1] == 0:
            return
        positions = (bases[:, None] + offsets).ravel()
        self._check_batch(bases)
        self._check_batch(positions)
        if record:
            self.memory.record_writes(
                bases.size,
                self._bill_words(bases, row_spans(offsets, bases.size)))
        _or_bits(self.as_numpy(), positions)

    def set_pairs_batch(self, bases, offsets) -> None:
        """Vectorised pair write: the write twin of :meth:`test_pairs_batch`.

        Sets bits ``base`` and ``base + offset`` of every pair.
        ``bases`` and ``offsets`` broadcast together.  Each pair is
        billed as one write spanning ``offset + 1`` bits from its base,
        exactly like ``set_offsets(base, (0, offset))``.
        Unlike :meth:`set_offsets_batch` it never builds a per-pair
        offset matrix.
        """
        self._check_writable()
        bases, offsets, ends = self._pair_operands(bases, offsets)
        if bases.size == 0:
            return
        self.memory.record_writes(
            bases.size, self._bill_words(bases, offsets + 1))
        view = self.as_numpy()
        _or_bits(view, bases.ravel())
        _or_bits(view, ends.ravel())

    def read_windows_batch(self, starts, nbits: int,
                           record: bool = True) -> np.ndarray:
        """Vectorised :meth:`read_window`: one ``uint64`` per start.

        The fast path is one unaligned little-endian 64-bit load per
        window — a single gather from :meth:`_words`, the ``<u8`` view
        that starts a word at every byte — then a shift and a mask.  It
        covers every span with ``(start % 8) + nbits <= 64``: all the
        configurations the paper's offset bounds permit.  Windows wider
        than that (``word_bits=128`` policies, ``c_max > 57``) fall back
        to per-element :meth:`read_window` calls (identical values,
        still one Python call for the batch).
        """
        starts = as_batch_int64(starts)
        require_positive("nbits", nbits)
        if starts.size == 0:
            return np.empty(0, dtype=np.uint64)
        # One min and one max check both the starts and the window ends;
        # ``_check_batch`` runs only to raise its own error.
        lo, hi = int(starts.min()), int(starts.max())
        if lo < 0 or hi >= self._nbits:
            self._check_batch(starts)
        if hi + nbits > self._nbits:
            raise IndexError(
                "window of %d bits exceeds BitArray of %d bits"
                % (nbits, self._nbits)
            )
        if record:
            self.memory.record_reads(
                starts.size, self._bill_words(starts, nbits))
        # Any byte misalignment fits one word when nbits + 7 <= 64.
        if nbits + 7 > 64 and nbits + int((starts & 7).max()) > 64:
            return np.array(
                [self.read_window(int(s), nbits, record=False)
                 for s in starts],
                dtype=object if nbits > 64 else np.uint64,
            )
        words = self._words()
        # A window whose bytes lie in the last seven bytes of the buffer
        # has no full word of its own: load the last word instead and
        # fold the skipped bytes into the shift.  The window is bounds-
        # checked above, so the shift stays below 64 and the shifted
        # value still holds all of its bits.
        first = np.minimum(starts >> 3, len(words) - 1)
        values = words[first] >> (starts - (first << 3)).astype(np.uint64)
        if nbits < 64:
            values &= np.uint64((1 << nbits) - 1)
        return values

    def _words(self) -> np.ndarray:
        """``<u8`` view with a word starting at every byte.

        Element ``i`` is the little-endian 64-bit word over bytes
        ``i .. i + 7`` — an unaligned load — so there are ``nbytes - 7``
        of them.  Zero copy over the backing buffer, attached read-only
        buffers included; a buffer shorter than eight bytes is copied
        zero-padded into a single word.
        """
        buf = self._buf
        if len(buf) < 8:
            buf = bytes(buf).ljust(8, b"\x00")
        return np.ndarray(shape=(len(buf) - 7,), dtype="<u8",
                          buffer=buf, strides=(1,))

    # ------------------------------------------------------------------
    # Bulk helpers
    # ------------------------------------------------------------------
    def clear_all(self) -> None:
        """Reset every bit to 0 (does not touch access statistics)."""
        self._buf[:] = bytes(len(self._buf))

    def copy(self) -> "BitArray":
        """Return a deep copy sharing no state (fresh access statistics)."""
        clone = BitArray(self._nbits, memory=MemoryModel(
            word_bits=self.memory.word_bits, tier=self.memory.tier))
        clone._buf[:] = self._buf
        return clone

    def to_bytes(self) -> bytes:
        """Serialise the raw bit buffer (LSB-first within each byte)."""
        return bytes(self._buf)

    @property
    def readonly(self) -> bool:
        """Whether the backing buffer refuses writes.

        ``False`` for ordinary (``bytearray``-backed) arrays; ``True``
        for arrays built by :meth:`attach_readonly`.  Scalar writes are
        not pre-checked — they raise ``TypeError`` at the memoryview,
        which keeps those hot paths branch-free — while the batch write
        kernels raise the same ``TypeError`` before writing anything.
        """
        buf = self._buf
        return isinstance(buf, memoryview) and buf.readonly

    def export_readonly(self) -> memoryview:
        """Read-only zero-copy ``memoryview`` of the backing buffer.

        This is the publish-side half of shared-memory serving: the
        writer copies exactly these bytes into a shared segment, and
        readers re-wrap them with :meth:`attach_readonly`.  The view
        is contiguous ``uint8`` — the buffer is a flat ``bytearray``,
        *not* a ``uint64`` array (a widened dtype would impose
        8-byte-multiple buffer lengths the bit math never needs).
        """
        view = memoryview(self._buf)
        return view if view.readonly else view.toreadonly()

    @classmethod
    def attach_readonly(
        cls, buffer, nbits: int, memory: Optional[MemoryModel] = None
    ) -> "BitArray":
        """Wrap an external buffer as a read-only array — zero copy.

        *buffer* is any object exposing a C-contiguous byte buffer of
        exactly ``(nbits + 7) // 8`` bytes — typically a slice of a
        ``multiprocessing.shared_memory`` segment holding a published
        filter generation.  The returned array shares that memory: no
        bytes are copied, and every read (scalar, windowed, or batch)
        behaves exactly like the ``bytearray``-backed original.  Writes
        raise at the buffer layer (see :attr:`readonly`).

        :meth:`copy` on an attached array yields an ordinary writable
        deep copy, which is how a restarted writer warms up from the
        last published generation.
        """
        require_positive("nbits", nbits)
        view = memoryview(buffer)
        if view.ndim != 1 or view.itemsize != 1:
            view = view.cast("B")
        if not view.readonly:
            view = view.toreadonly()
        if len(view) != (nbits + 7) // 8:
            raise ConfigurationError(
                "buffer of %d bytes does not match %d bits"
                % (len(view), nbits)
            )
        arr = cls.__new__(cls)
        arr._nbits = nbits
        arr._buf = view
        arr.memory = memory if memory is not None else MemoryModel()
        return arr

    @classmethod
    def from_bytes(
        cls, data: bytes, nbits: int, memory: Optional[MemoryModel] = None
    ) -> "BitArray":
        """Rebuild a :class:`BitArray` from :meth:`to_bytes` output."""
        arr = cls(nbits, memory=memory)
        if len(data) != len(arr._buf):
            raise ConfigurationError(
                "buffer of %d bytes does not match %d bits"
                % (len(data), nbits)
            )
        arr._buf[:] = data
        return arr

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "BitArray(nbits=%d, set=%d)" % (self._nbits, self.count())
