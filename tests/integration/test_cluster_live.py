"""Integration: live-cluster behavior beyond happy-path replay.

Fail-stop crashes, sender-side transport faults (dropped reads,
dropped stores, partitions), open-loop Poisson load, the subprocess
launch mode, and the admin plane.
"""

from __future__ import annotations

import asyncio
import gc
import logging
import socket

import pytest

from repro.cluster import (
    ClusterClient,
    ClusterSpec,
    FaultPlan,
    poisson_load,
    replay_schedule,
    start_cluster,
    start_local_cluster,
)
from repro.cluster.transport import _resolve
from repro.core.dynamic_allocation import DynamicAllocation
from repro.exceptions import ClusterError
from repro.storage.versions import ObjectVersion
from repro.workloads.uniform import UniformWorkload

PROCESSORS = (1, 2, 3)
SCHEME = frozenset({1, 2})
PRIMARY = 2


def run(coro):
    return asyncio.run(coro)


async def booted(protocol: str = "DA"):
    spec = ClusterSpec(
        processors=PROCESSORS,
        scheme=SCHEME,
        protocol=protocol,
        primary=PRIMARY if protocol == "DA" else None,
    )
    cluster = await start_local_cluster(spec)
    client = ClusterClient(cluster.addresses, timeout=10.0)
    return cluster, client


class TestCrashRecover:
    def test_exec_on_crashed_node_fails(self):
        async def scenario():
            cluster, client = await booted()
            try:
                await cluster.crash(3)
                outcome = await client.execute(3, "read", rid=1)
                assert not outcome.ok
                assert "crash" in (outcome.error or "")
                # The rest of the cluster is unbothered.
                alive = await client.execute(1, "read", rid=2)
                assert alive.ok
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())

    def test_write_survives_crashed_replica(self):
        async def scenario():
            cluster, client = await booted()
            try:
                await cluster.crash(2)
                write = await client.execute(
                    1, "write", rid=1, version=ObjectVersion(1, 1)
                )
                assert write.ok  # fail-stop peer cannot block the writer
                metrics = await cluster.metrics()
                assert metrics[2].dropped_messages >= 1

                # Recovery follows distsim semantics: the copy stays
                # invalid until re-read from the server.
                await cluster.recover(2)
                read = await client.execute(2, "read", rid=2)
                assert read.ok
                assert read.version is not None
                assert read.version.number == 1
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())


class TestTransportFaults:
    def test_dropped_read_request_fails_cleanly(self):
        async def scenario():
            cluster, client = await booted()
            try:
                plan = FaultPlan(drop_next={(3, 1): 1})
                await cluster.set_fault_plan(plan, nodes=[3])

                first = await client.execute(3, "read", rid=1)
                assert not first.ok  # the ReadRequest never left node 3

                second = await client.execute(3, "read", rid=2)
                assert second.ok  # drop budget spent

                metrics = await cluster.metrics()
                assert metrics[3].dropped_messages == 1
                # Doomed messages are still charged at the sender,
                # exactly like the simulated network.
                assert metrics[3].control_sent == 2
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())

    def test_dropped_store_does_not_block_the_writer(self):
        async def scenario():
            cluster, client = await booted("SA")
            try:
                await cluster.set_fault_plan(
                    FaultPlan(drop_next={(1, 2): 1}), nodes=[1]
                )
                write = await client.execute(
                    1, "write", rid=1, version=ObjectVersion(1, 1)
                )
                assert write.ok

                metrics = await cluster.metrics()
                assert metrics[1].dropped_messages == 1
                assert metrics[1].data_sent == 1  # charged despite the drop

                # The replica missed the store: its copy is stale.
                stale = await client.execute(2, "read", rid=2)
                assert stale.ok
                assert stale.version.number == 0
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())

    def test_partition_blocks_cross_group_reads(self):
        async def scenario():
            cluster, client = await booted()
            try:
                plan = FaultPlan(
                    partitions=(frozenset({1}), frozenset({2, 3}))
                )
                await cluster.set_fault_plan(plan)

                # Node 3 must reach the server (node 1) across the cut.
                cut = await client.execute(3, "read", rid=1)
                assert not cut.ok
                # The server itself still reads locally.
                local = await client.execute(1, "read", rid=2)
                assert local.ok

                # Healing the partition restores service.
                await cluster.set_fault_plan(None)
                healed = await client.execute(3, "read", rid=3)
                assert healed.ok
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())


class TestLoadGeneration:
    def test_poisson_load_completes_without_faults(self):
        async def scenario():
            cluster, client = await booted()
            try:
                result = await poisson_load(
                    client,
                    PROCESSORS,
                    count=60,
                    rate=500.0,
                    write_fraction=0.25,
                    seed=3,
                )
                assert result.errors == 0
                assert result.completed == 60
                stats = await cluster.aggregate_stats()
                assert stats.requests_completed == 60
                assert len(stats.latencies) == 60
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())


class TestClientConnections:
    def test_concurrent_first_calls_share_one_dial(self, caplog):
        async def scenario():
            cluster, client = await booted()
            node = cluster.nodes[1]
            try:
                before = len(node._connections)
                # Node 1 holds a copy, so its reads stay local: the only
                # new connection it can accept is the client's.
                outcomes = await asyncio.gather(
                    *(client.execute(1, "read", rid=rid) for rid in range(1, 17))
                )
                assert all(outcome.ok for outcome in outcomes)
                return len(node._connections) - before
            finally:
                await client.close()
                await cluster.stop()

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            accepted = run(scenario())
            gc.collect()
        assert accepted == 1
        assert not [r for r in caplog.records if "destroyed" in r.getMessage()]

    def test_a_finished_request_leaves_a_new_waiter_on_its_rid_alone(self):
        # A reply pops its waiter in the socket callback, and the waiting
        # request cleans up only when its task next runs.  A request for
        # the same rid that runs in between must keep its own waiter.
        async def scenario():
            cluster, client = await booted()
            try:
                conn, replies = await client._links.get(1)
                # Pings are answered under rid 0, so rid 99 waits until
                # resolved by hand.
                first = asyncio.ensure_future(
                    client.request(1, {"type": "ping"}, rid=99)
                )
                await asyncio.sleep(0)
                second = asyncio.ensure_future(
                    client.request(1, {"type": "ping"}, rid=99)
                )
                _resolve(replies, {"type": "pong", "rid": 99}, conn)
                assert (await first)["rid"] == 99
                assert 99 in replies and not second.done()
                _resolve(replies, {"type": "pong", "rid": 99}, conn)
                assert (await asyncio.wait_for(second, 2.0))["rid"] == 99
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())

    def test_lost_connection_fails_only_its_own_callers(self):
        async def scenario():
            cluster, client = await booted()
            try:
                first, _ = await client._links.get(1)
                assert (await client.execute(1, "read", rid=1)).ok
                # A caller parked on the old connection (a ping's reply
                # carries no rid, so rid 99 is never answered), which
                # then dies after a newer one replaced it.
                parked = asyncio.ensure_future(
                    client.request(1, {"type": "ping"}, rid=99)
                )
                await asyncio.sleep(0.01)
                client._links.drop(1, first)
                second, _ = await client._links.get(1)
                assert second is not first
                live = asyncio.ensure_future(client.execute(1, "read", rid=2))
                await first.wait_closed()
                with pytest.raises(ClusterError):
                    await parked
                assert (await live).ok
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())


def leftover_tasks():
    current = asyncio.current_task()
    return [task for task in asyncio.all_tasks() if task is not current]


class TestFanOutTeardown:
    """A store fan-out delayed by the fault plan is one unit with the
    request that sent it: ending the request ends its sends."""

    async def delayed_fan_out(self, exec_timeout: float):
        spec = ClusterSpec(
            processors=PROCESSORS,
            scheme=SCHEME,
            protocol="SA",
            exec_timeout=exec_timeout,
        )
        cluster = await start_local_cluster(spec)
        client = ClusterClient(cluster.addresses, timeout=10.0)
        # Node 3 is outside the scheme, so its write stores to 1 and 2.
        await cluster.set_fault_plan(FaultPlan(default_delay=5.0), nodes=[3])
        return cluster, client

    def test_timed_out_exec_leaves_no_pending_send(self, caplog):
        async def scenario():
            cluster, client = await self.delayed_fan_out(exec_timeout=0.1)
            try:
                outcome = await client.execute(
                    3, "write", rid=1, version=ObjectVersion(1, 3)
                )
                assert not outcome.ok and "timed out" in outcome.error
                await asyncio.sleep(0.01)
                assert not cluster.nodes[3]._tasks
            finally:
                await client.close()
                await cluster.stop()
            return leftover_tasks()

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            assert run(scenario()) == []
            gc.collect()
        assert not [r for r in caplog.records if "destroyed" in r.getMessage()]

    def test_stopped_node_leaves_no_pending_send(self, caplog):
        async def scenario():
            cluster, client = await self.delayed_fan_out(exec_timeout=15.0)
            write = asyncio.ensure_future(
                client.execute(3, "write", rid=1, version=ObjectVersion(1, 3))
            )
            await asyncio.sleep(0.05)
            assert len(cluster.nodes[3]._tasks) == 3  # the exec, two sends
            await cluster.stop()
            assert not (await write).ok
            await client.close()
            return leftover_tasks()

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            assert run(scenario()) == []
            gc.collect()
        assert not [r for r in caplog.records if "destroyed" in r.getMessage()]


class TestSubprocessCluster:
    def test_subprocess_replay_matches_stepped_model(self):
        schedule = UniformWorkload(PROCESSORS, 80, 0.3).generate(11)

        async def scenario():
            spec = ClusterSpec(
                processors=PROCESSORS,
                scheme=SCHEME,
                protocol="DA",
                primary=PRIMARY,
            )
            cluster = await start_cluster(spec, subprocesses=True)
            client = ClusterClient(cluster.addresses)
            try:
                result = await replay_schedule(client, schedule)
                result.raise_on_errors()
                return await cluster.aggregate_stats()
            finally:
                await client.close()
                await cluster.stop()

        live = run(scenario()).breakdown()
        stepped = (
            DynamicAllocation(SCHEME, primary=PRIMARY)
            .run(schedule)
            .total_breakdown()
        )
        assert live == stepped


class TestAdminPlane:
    def test_ping_and_reset_metrics(self):
        schedule = UniformWorkload(PROCESSORS, 30, 0.3).generate(5)

        async def scenario():
            cluster, client = await booted("SA")
            try:
                await cluster.ping_all()
                result = await replay_schedule(client, schedule)
                result.raise_on_errors()
                busy = await cluster.aggregate_stats()
                assert busy.requests_completed == len(schedule)

                await cluster.reset_metrics()
                idle = await cluster.aggregate_stats()
                assert idle.requests_completed == 0
                assert idle.control_messages == 0
                assert idle.data_messages == 0
                assert idle.io_reads == 0 and idle.io_writes == 0

                # Metrics keep accruing after a reset: the transport
                # and the server share the fresh counter object.  An
                # outsider read under SA is one control message (the
                # ReadRequest) answered by one data message.
                probe = await client.execute(3, "read", rid=len(schedule) + 1)
                assert probe.ok
                fresh = await cluster.aggregate_stats()
                assert fresh.requests_completed == 1
                assert fresh.control_messages == 1
                assert fresh.data_messages == 1
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())

    def test_overlapping_admin_calls_never_orphan_a_caller(self):
        # Admin replies carry no rid, so two calls in flight to one node
        # both wait under rid 0: the later one must fail at once, not
        # take the earlier one's reply slot and leave it waiting forever.
        async def scenario():
            cluster, client = await booted()
            try:
                calls = [
                    asyncio.ensure_future(cluster.admin(1, {"type": "ping"}))
                    for _ in range(2)
                ]
                done, pending = await asyncio.wait(calls, timeout=2.0)
                for call in pending:
                    call.cancel()
                assert not pending
                errors = [call.exception() for call in done if call.exception()]
                assert all(isinstance(error, ClusterError) for error in errors)
                pongs = [call.result() for call in done if not call.exception()]
                assert [pong["type"] for pong in pongs] == ["pong"]
                # The slot is free again once the first call is answered.
                assert (await cluster.admin(1, {"type": "ping"}))["type"] == "pong"
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())


def test_unix_transport_available_or_tcp_fallback():
    """``auto`` must resolve to a transport this platform can bind."""
    from repro.cluster.launcher import resolve_transport

    kind = resolve_transport("auto")
    if hasattr(socket, "AF_UNIX"):
        assert kind == "unix"
    else:  # pragma: no cover - non-POSIX platforms
        assert kind == "tcp"
