"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import asyncio

import pytest


def make_elements(count: int, prefix: str = "elem") -> list[bytes]:
    """Deterministic distinct byte-string elements for filter tests."""
    return [("%s-%08d" % (prefix, i)).encode() for i in range(count)]


@pytest.fixture
def elements():
    """200 distinct member elements."""
    return make_elements(200, "member")


@pytest.fixture
def negatives():
    """2000 distinct elements disjoint from the ``elements`` fixture."""
    return make_elements(2000, "absent")


async def start_black_hole():
    """A server that accepts and reads but never answers: a hung-but-up
    endpoint.  Returns ``(server, port)``.

    Each handler closes its connection once the peer goes away, so the
    server leaves no unclosed socket or transport behind.
    """

    async def handler(reader, writer):
        try:
            while await reader.read(65536):
                pass
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(handler, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]
