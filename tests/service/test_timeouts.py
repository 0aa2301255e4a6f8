"""Client deadlines: ops against a stalled server must fail fast.

These tests run their own stub servers (a socket that accepts and then
never answers) rather than the ``service_run`` fixture — the point is
exactly the case where the real server machinery never replies.
"""

import asyncio
import gc
import sys
import time
import warnings

import pytest

from repro.errors import DeadlineExceededError
from repro.service.client import ServiceClient, SyncServiceClient
from repro.service.server import FilterService
from repro.core.membership import ShiftingBloomFilter
from tests.conftest import start_black_hole


def run(coro):
    return asyncio.run(coro)


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

    def test_close_after_the_loop_stopped_leaves_no_coroutine(self):
        """A close() whose loop thread is gone times out, and the
        ``ServiceClient.close`` coroutine it queued never starts; it is
        then run to completion on the idle loop, so neither the
        coroutine nor the connection's socket transport is dropped
        unclosed (a ResourceWarning, raised from ``__del__``, would
        reach the unraisable hook)."""
        loop = asyncio.new_event_loop()
        server, port = loop.run_until_complete(start_black_hole())
        try:
            client = SyncServiceClient(port=port, timeout=0.1)
            client._loop.call_soon_threadsafe(client._loop.stop)
            client._thread.join(2.0)
            assert not client._thread.is_alive()
            client_loop = client._loop
            unraisable = []
            hook, sys.unraisablehook = sys.unraisablehook, unraisable.append
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    warnings.simplefilter("error", ResourceWarning)
                    with pytest.raises(DeadlineExceededError):
                        client.close()
                    del client
                    gc.collect()
            finally:
                sys.unraisablehook = hook
            assert [str(u.exc_value) for u in unraisable] == []
            assert client_loop.is_closed()
        finally:
            server.close()
            loop.run_until_complete(server.wait_closed())
            loop.close()

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
            # Once the wedge ends the loop runs the stop request and its
            # thread exits; a second close() then finishes the
            # connection's close on the idle loop and closes the loop.
            client._thread.join(5.0)
            assert not client._thread.is_alive()
            with pytest.raises(DeadlineExceededError):
                client.close()
            assert client._loop.is_closed()
        finally:
            server.close()
            loop.run_until_complete(server.wait_closed())
            loop.close()
