"""Circuit breaker, health-scored reads, and idempotent writes.

Complements ``test_failover_client.py`` (the PR-4 semantics, which
must keep holding): these tests cover the hardening added on top —
breaker state transitions under an injected clock, EWMA-scored read
ordering, deadline-triggered failover, and the ADD_IDEM dedup window
both server-side and across a replicated pair.
"""

import asyncio

import pytest

from repro.errors import DeadlineExceededError, FailoverExhaustedError
from repro.replication.failover import EndpointState, FailoverClient
from repro.retry import BackoffPolicy, RetryBudget
from repro.service.client import ServiceClient
from tests.conftest import start_black_hole


def run(coro):
    return asyncio.run(coro)


class TestEndpointState:
    def test_success_resets_failures_and_breaker(self):
        state = EndpointState(failures_row=5, open_until=99.0)
        state.record_success(0.01)
        assert state.failures_row == 0
        assert state.open_until == 0.0
        assert state.ewma_s == pytest.approx(0.01)

    def test_ewma_smooths_samples(self):
        state = EndpointState()
        state.record_success(0.1)
        state.record_success(0.2)
        assert 0.1 < state.ewma_s < 0.2

    def test_is_open_follows_the_clock(self):
        state = EndpointState(open_until=10.0)
        assert state.is_open(9.9)
        assert not state.is_open(10.0)


class TestCircuitBreaker:
    def make_client(self, now):
        # Endpoint port 1 never answers; all failures are real.
        return FailoverClient(
            [("127.0.0.1", 1)], breaker_failures=2, breaker_reset_s=5.0,
            op_timeout=0.2, connect_timeout=0.2, clock=lambda: now[0])

    def test_breaker_opens_after_consecutive_failures(self):
        async def main():
            now = [0.0]
            client = self.make_client(now)
            try:
                for _ in range(2):
                    with pytest.raises(FailoverExhaustedError):
                        await client.ping()
                return client.breaker_opens, client._states[0]
            finally:
                await client.close()

        opens, state = run(main())
        assert opens == 1
        assert state.is_open(0.0)
        assert state.open_until == pytest.approx(5.0)

    def test_open_breaker_endpoint_is_still_tried_when_alone(self):
        async def main():
            now = [0.0]
            client = self.make_client(now)
            try:
                for _ in range(3):
                    with pytest.raises(FailoverExhaustedError):
                        await client.ping()
                # Breaker open, but the walk still reached it (the
                # error list is never empty / never short-circuited).
                return client._states[0].failures_row
            finally:
                await client.close()

        assert run(main()) == 3

    def test_half_open_probe_failure_reopens(self):
        async def main():
            now = [0.0]
            client = self.make_client(now)
            try:
                for _ in range(2):
                    with pytest.raises(FailoverExhaustedError):
                        await client.ping()
                opened_at = client._states[0].open_until
                now[0] = 6.0  # past the reset window: half-open
                with pytest.raises(FailoverExhaustedError):
                    await client.ping()
                return opened_at, client._states[0].open_until
            finally:
                await client.close()

        first, second = run(main())
        assert first == pytest.approx(5.0)
        assert second == pytest.approx(11.0)  # re-opened from t=6


class TestScoredReadOrder:
    def make_client(self):
        return FailoverClient(
            [("127.0.0.1", 1), ("127.0.0.1", 2), ("127.0.0.1", 3)],
            clock=lambda: 0.0)

    def test_unknown_ewma_scores_neutral_not_first(self):
        client = self.make_client()
        client._states[0].ewma_s = 0.010
        # Endpoints 1 and 2 have no samples: they must not jump ahead
        # of the measured-and-preferred endpoint 0.
        assert client._read_order()[0] == 0

    def test_faster_standby_wins_beyond_hysteresis(self):
        client = self.make_client()
        client._states[0].ewma_s = 0.100
        client._states[1].ewma_s = 0.050  # >20% faster than preferred
        assert client._read_order()[0] == 1

    def test_hysteresis_keeps_near_equal_preferred_sticky(self):
        client = self.make_client()
        client._states[0].ewma_s = 0.100
        client._states[1].ewma_s = 0.090  # faster, but within 20%
        assert client._read_order()[0] == 0

    def test_open_breaker_sorts_last(self):
        client = self.make_client()
        client._states[0].ewma_s = 0.010
        client._states[0].open_until = 99.0  # open at clock=0
        client._states[1].ewma_s = 0.500
        client._states[2].ewma_s = 0.600
        order = client._read_order()
        assert order == [1, 2, 0]


class TestDeadlineFailover:
    def test_hung_endpoint_fails_over_within_budget(self, pair_run):
        async def scenario(ctx):
            hole, hole_port = await start_black_hole()
            client = FailoverClient(
                [("127.0.0.1", hole_port),
                 ("127.0.0.1", ctx.standby_port)],
                op_timeout=0.3, connect_timeout=0.3)
            try:
                banner = await client.ping()
                assert banner
                assert client.deadline_timeouts == 1
                assert client.failovers == 1
                assert client.preferred == 1
            finally:
                await client.close()
                hole.close()
                await hole.wait_closed()

        pair_run(scenario)


class TestMultiPassRetries:
    def test_passes_exhaust_budget_not_time(self):
        async def main():
            budget = RetryBudget(capacity=2, refill_per_s=0.0)
            client = FailoverClient(
                [("127.0.0.1", 1)], max_passes=10,
                backoff=BackoffPolicy(base=0.0, jitter="none"),
                budget=budget, op_timeout=0.2, connect_timeout=0.2)
            try:
                with pytest.raises(Exception) as info:
                    await client.ping()
                return type(info.value).__name__, client.retries
            finally:
                await client.close()

        name, retries = run(main())
        assert name == "RetryBudgetExceededError"
        assert retries == 2

    def test_second_pass_recovers_after_transient_outage(self, pair_run):
        async def scenario(ctx):
            # Pass 1 hits only a dead port; the walk is exhausted, the
            # backoff sleeps, and pass 2 is pointed at a live server by
            # then — the op succeeds without surfacing an error.
            client = FailoverClient(
                [("127.0.0.1", 1)], max_passes=2,
                backoff=BackoffPolicy(base=0.0, jitter="none"),
                op_timeout=0.3, connect_timeout=0.3)
            client._endpoints[0] = ("127.0.0.1", ctx.standby_port)

            # First, prove a genuine single-pass failure:
            failing = FailoverClient(
                [("127.0.0.1", 1)], op_timeout=0.2, connect_timeout=0.2)
            with pytest.raises(FailoverExhaustedError):
                await failing.ping()
            await failing.close()

            banner = await client.ping()
            assert banner
            await client.close()

        pair_run(scenario)


class TestIdempotentWrites:
    def test_server_dedups_same_key(self, pair_run):
        async def scenario(ctx):
            client = await ctx.connect_primary()
            try:
                first = await client.add_idem(9, 1, [b"x", b"y"])
                again = await client.add_idem(9, 1, [b"x", b"y"])
                assert first == again == 2
                stats = await client.stats()
                assert stats["n_items"] == 2  # applied once
                assert ctx.primary_service.counters.dedup_hits == 1
            finally:
                await client.close()

        pair_run(scenario)

    def test_failover_client_reuses_key_across_endpoints(self, pair_run):
        async def scenario(ctx):
            client = FailoverClient(
                [("127.0.0.1", ctx.primary_port),
                 ("127.0.0.1", ctx.standby_port)],
                client_id=42, op_timeout=1.0)
            try:
                await client.add([b"a", b"b"])
                assert client.client_id == 42
                window = ctx.primary_service.idempotency
                assert len(window) == 1
                assert window.get(42, 1) is not None
            finally:
                await client.close()

        pair_run(scenario)

    def test_dedup_window_ships_to_the_standby(self, pair_run):
        async def scenario(ctx):
            client = FailoverClient(
                [("127.0.0.1", ctx.primary_port),
                 ("127.0.0.1", ctx.standby_port)],
                client_id=7, op_timeout=1.0)
            try:
                await client.add([b"a", b"b", b"c"])
                await ctx.repl.ship()
                # The standby holds the key: a retry of the same write
                # after a promote must dedup there too.
                assert ctx.standby_service.idempotency.get(7, 1) \
                    is not None
                await ctx.kill_primary()
                await client.promote()
                n_before = ctx.standby_service.target.n_items
                again = await ServiceClient.connect(
                    port=ctx.standby_port, op_timeout=1.0)
                try:
                    result = await again.add_idem(7, 1, [b"a", b"b", b"c"])
                finally:
                    await again.close()
                assert result == 3  # the originally recorded count
                assert ctx.standby_service.target.n_items == n_before
            finally:
                await client.close()

        pair_run(scenario)
