"""Internals shared by the experiment drivers."""

from __future__ import annotations

import os

from repro.errors import ConfigurationError

__all__ = ["env_scale", "scaled"]


def scaled(value: int, scale: float, minimum: int = 1) -> int:
    """Scale a workload size, clamped to a sane minimum."""
    if scale <= 0:
        raise ConfigurationError("scale must be positive, got %r" % scale)
    return max(minimum, int(round(value * scale)))


def env_scale(default: float = 1.0) -> float:
    """Scale factor from ``REPRO_BENCH_SCALE`` (benches honour this)."""
    raw = os.environ.get("REPRO_BENCH_SCALE")
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ConfigurationError(
            "REPRO_BENCH_SCALE=%r is not a number" % raw
        ) from None
    if value <= 0:
        raise ConfigurationError(
            "REPRO_BENCH_SCALE must be positive, got %r" % raw
        )
    return value
