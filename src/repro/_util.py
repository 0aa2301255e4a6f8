"""Internal helpers shared across the package.

These utilities keep argument validation and element canonicalisation in
one place so every filter behaves identically for equivalent inputs.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, List

from repro.errors import ConfigurationError

#: Types accepted anywhere an "element" is expected.  Everything is
#: canonicalised to ``bytes`` before hashing so that, e.g., the string
#: ``"10.0.0.1:80"`` and its UTF-8 encoding are the same element.
ElementLike = Any


def to_bytes(element: ElementLike) -> bytes:
    """Canonicalise *element* to ``bytes`` for hashing.

    Accepted types are ``bytes``/``bytearray``/``memoryview`` (used as-is),
    ``str`` (UTF-8 encoded) and ``int`` (minimal big-endian two's-complement
    encoding with a sign-distinguishing prefix so that ``1`` and ``b"\\x01"``
    hash identically only when passed identically).

    Raises:
        TypeError: if *element* is of an unsupported type.  Floats are
            rejected deliberately — binary float representations make
            equality surprising (``0.1 + 0.2 != 0.3``), so callers should
            quantise to int/str first.
    """
    if isinstance(element, bytes):
        return element
    if isinstance(element, (bytearray, memoryview)):
        return bytes(element)
    if isinstance(element, str):
        return element.encode("utf-8")
    if isinstance(element, bool):
        # bool is an int subclass; keep it distinct from 0/1 by tagging.
        return b"\x01bool" + (b"\x01" if element else b"\x00")
    if isinstance(element, int):
        length = max(1, (element.bit_length() + 8) // 8)
        return element.to_bytes(length, "big", signed=True)
    raise TypeError(
        "unsupported element type %r; pass bytes, str or int"
        % type(element).__name__
    )


def to_bytes_batch(elements: Iterable[ElementLike]) -> List[bytes]:
    """Canonicalise a batch with :func:`to_bytes`, as a new list.

    A batch whose elements are all exactly ``bytes`` — what the wire and
    the serving path carry — is copied as is after one type scan, with
    no per-element call; any other batch takes :func:`to_bytes` element
    by element.
    """
    elements = list(elements)
    if set(map(type, elements)) <= {bytes}:
        return elements
    return [to_bytes(e) for e in elements]


def require_positive(name: str, value: int) -> int:
    """Validate that an integer parameter is strictly positive."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigurationError("%s must be an int, got %r" % (name, value))
    if value <= 0:
        raise ConfigurationError("%s must be positive, got %d" % (name, value))
    return value


def require_non_negative(name: str, value: int) -> int:
    """Validate that an integer parameter is zero or positive."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigurationError("%s must be an int, got %r" % (name, value))
    if value < 0:
        raise ConfigurationError(
            "%s must be non-negative, got %d" % (name, value)
        )
    return value


def require_probability(name: str, value: float) -> float:
    """Validate that a float parameter lies in the open interval (0, 1)."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(
            "%s must be a float in (0, 1), got %r" % (name, value)
        ) from None
    if not 0.0 < value < 1.0 or math.isnan(value):
        raise ConfigurationError(
            "%s must lie strictly between 0 and 1, got %r" % (name, value)
        )
    return value


def require_even(name: str, value: int) -> int:
    """Validate that an integer parameter is positive and even.

    ShBF_M splits its ``k`` probe positions into existence/auxiliary halves,
    so ``k`` must be even (the paper assumes this "for simplicity"; we make
    it an explicit contract).
    """
    require_positive(name, value)
    if value % 2 != 0:
        raise ConfigurationError("%s must be even, got %d" % (name, value))
    return value
