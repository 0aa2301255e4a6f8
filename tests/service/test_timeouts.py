"""Client deadlines: ops against a stalled server must fail fast.

These tests run their own stub servers (a socket that accepts and then
never answers) rather than the ``service_run`` fixture — the point is
exactly the case where the real server machinery never replies.
"""

import asyncio
import time

import pytest

from repro.errors import DeadlineExceededError
from repro.service.client import ServiceClient, SyncServiceClient
from repro.service.server import FilterService
from repro.core.membership import ShiftingBloomFilter


def run(coro):
    return asyncio.run(coro)


async def start_black_hole():
    """A server that accepts, reads, and never writes back."""

    async def handler(reader, writer):
        try:
            while await reader.read(65536):
                pass
        except (ConnectionError, OSError):
            pass

    server = await asyncio.start_server(handler, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


class TestOpDeadline:
    def test_stalled_server_trips_the_deadline(self):
        async def main():
            server, port = await start_black_hole()
            client = await ServiceClient.connect(
                port=port, op_timeout=0.15)
            try:
                start = time.monotonic()
                with pytest.raises(DeadlineExceededError):
                    await client.ping()
                return time.monotonic() - start
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        elapsed = run(main())
        assert 0.1 <= elapsed < 2.0

    def test_timed_out_request_leaves_no_pending_entry(self):
        async def main():
            server, port = await start_black_hole()
            client = await ServiceClient.connect(
                port=port, op_timeout=0.05)
            try:
                with pytest.raises(DeadlineExceededError):
                    await client.ping()
                return len(client._pending)
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        assert run(main()) == 0

    def test_per_call_override_beats_the_connection_default(self):
        async def main():
            server, port = await start_black_hole()
            client = await ServiceClient.connect(
                port=port, op_timeout=30.0)
            try:
                start = time.monotonic()
                with pytest.raises(DeadlineExceededError):
                    await client.ping(timeout=0.1)
                return time.monotonic() - start
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        assert run(main()) < 2.0

    def test_deadline_does_not_fire_on_a_healthy_server(self):
        async def main():
            service = FilterService(ShiftingBloomFilter(m=1024, k=4))
            server = await service.start(port=0)
            port = server.sockets[0].getsockname()[1]
            client = await ServiceClient.connect(
                port=port, op_timeout=5.0)
            try:
                assert await client.add([b"a"]) == 1
                assert bool((await client.query([b"a"]))[0])
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        run(main())

    def test_deadline_error_is_oserror_compatible(self):
        # Transport handlers written as ``except OSError`` (the
        # pre-hardening idiom) must keep catching deadline misses.
        assert issubclass(DeadlineExceededError, TimeoutError)
        assert issubclass(DeadlineExceededError, OSError)

    def test_request_after_server_hangup_fails_at_once(self):
        """Once the server has dropped the connection no reply can
        come: a new request must fail now, not wait out its deadline."""
        async def main():
            server = await asyncio.start_server(
                lambda reader, writer: writer.transport.abort(),
                "127.0.0.1", 0)
            client = await ServiceClient.connect(
                port=server.sockets[0].getsockname()[1], op_timeout=5.0)
            try:
                await asyncio.wait_for(client._reader_task, 2.0)
                start = time.monotonic()
                with pytest.raises(ConnectionError):
                    await client.ping()
                return time.monotonic() - start
            finally:
                await client.close()
                server.close()

        assert run(main()) < 1.0


class TestSyncClientLifecycle:
    def test_sync_timeout_raises_not_hangs(self):
        loop = asyncio.new_event_loop()
        server, port = loop.run_until_complete(start_black_hole())
        try:
            client = SyncServiceClient(port=port, timeout=0.15)
            try:
                start = time.monotonic()
                with pytest.raises(DeadlineExceededError):
                    client.ping()
                assert time.monotonic() - start < 5.0
            finally:
                client.close()
        finally:
            server.close()
            loop.run_until_complete(server.wait_closed())
            loop.close()

    def test_failed_connect_does_not_leak_a_thread(self):
        import threading

        before = threading.active_count()
        with pytest.raises((ConnectionError, OSError)):
            SyncServiceClient(host="127.0.0.1", port=1,
                              timeout=0.5)
        # The worker thread wound down with the failed connect.
        assert threading.active_count() <= before

    def test_context_manager_exit_safe_after_failed_connect(self):
        with pytest.raises((ConnectionError, OSError)):
            with SyncServiceClient(host="127.0.0.1", port=1,
                                   timeout=0.5):
                pass  # pragma: no cover - connect fails first

    def test_close_warns_instead_of_hanging_on_a_wedged_loop(self):
        async def main():
            service = FilterService(ShiftingBloomFilter(m=1024, k=4))
            server = await service.start(port=0)
            return service, server, server.sockets[0].getsockname()[1]

        loop = asyncio.new_event_loop()
        service, server, port = loop.run_until_complete(main())
        try:
            client = SyncServiceClient(port=port, timeout=0.2)
            # Wedge the worker loop in blocking (non-async) code so it
            # cannot answer the close() or the stop request in time.
            client._loop.call_soon_threadsafe(time.sleep, 2.0)
            with pytest.warns(ResourceWarning, match="worker thread"):
                try:
                    client.close()
                except DeadlineExceededError:
                    pass  # close's own op timing out is expected here
        finally:
            server.close()
            loop.run_until_complete(server.wait_closed())
            loop.close()
