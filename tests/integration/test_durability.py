"""Integration: durable nodes — WAL-backed tiered crash recovery.

The headline claims of the durability layer, end to end on a live
cluster:

* a node whose replayed log still holds the latest version rejoins
  with **zero data messages** (one control round trip to verify
  freshness), restoring even its volatile DA join-list;
* a stale log falls back to the existing ``SchemeRepairer`` copy path;
* a torn/corrupted log is truncated at the damage point and recovery
  proceeds from the valid prefix (or, with the whole log gone, from
  the network);
* fault-free replays stay bit-identical to the stepped model with
  durability enabled, on both SA and DA — appends are uncharged riders;
* a restarted process resumes from its state dir, charging replay as
  local I/O (the paper's ``c_io``), never as messages.
"""

from __future__ import annotations

import asyncio

from repro.cluster import (
    ClusterClient,
    ClusterSpec,
    RetryPolicy,
    SchemeRepairer,
    durability_totals,
    replay_schedule,
    start_local_cluster,
    wal_path,
)
from repro.core.dynamic_allocation import DynamicAllocation
from repro.core.static_allocation import StaticAllocation
from repro.storage.versions import ObjectVersion
from repro.storage.wal import inject_tail_corruption, inject_torn_tail
from repro.workloads.uniform import UniformWorkload

SCHEME = frozenset({1, 2})
PRIMARY = 2

POLICY = RetryPolicy(attempts=4, base_delay=0.005, max_delay=0.05, seed=0)


def run(coro):
    return asyncio.run(coro)


async def booted(
    state_dir,
    protocol: str = "DA",
    processors=(1, 2, 3),
    scheme=SCHEME,
    primary=PRIMARY,
    snapshot_every: int = 64,
):
    spec = ClusterSpec(
        processors=tuple(processors),
        scheme=frozenset(scheme),
        protocol=protocol,
        primary=primary if protocol == "DA" else None,
        resilience=POLICY,
        state_dir=str(state_dir),
        snapshot_every=snapshot_every,
    )
    cluster = await start_local_cluster(spec)
    client = ClusterClient(cluster.addresses, timeout=10.0, retry=POLICY)
    return cluster, client


class TestFreshRejoin:
    def test_lone_core_member_is_vouched_for_by_the_writer(self, tmp_path):
        # t = 2: F = {1}, primary 2.  A write by outsider 3 invalidates
        # the primary, so the only other valid copy is the writer's.
        async def scenario():
            cluster, client = await booted(tmp_path)
            try:
                write = await client.execute(
                    3, "write", rid=1, version=ObjectVersion(1, 3)
                )
                assert write.ok
                await cluster.crash(1)
                before = await cluster.aggregate_stats()
                reply = await cluster.recover(1)
                after = await cluster.aggregate_stats()
                assert reply["tier"] == "log-fresh"
                assert reply["probe_peer"] == 3
                assert reply["peer_version"] == 1
                assert after.data_messages == before.data_messages
                read = await client.execute(1, "read", rid=2)
                assert read.ok and read.version.number == 1
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())

    def test_fresh_log_rejoins_with_zero_data_messages(self, tmp_path):
        async def scenario():
            cluster, client = await booted(tmp_path)
            repairer = SchemeRepairer(cluster, t=2)
            try:
                # A write lands copies at 1 and the primary; then the
                # outsider 3 joins node 1's join-list by reading.
                write = await client.execute(
                    1, "write", rid=1, version=ObjectVersion(1, 1)
                )
                assert write.ok
                read = await client.execute(3, "read", rid=2)
                assert read.ok and read.version.number == 1

                await cluster.crash(1)
                before = await cluster.aggregate_stats()

                # No writes happened while node 1 was down, so its log
                # is still fresh: tier 1, no repair round needed.
                reply, report = await repairer.recover_node(1)
                assert reply["tier"] == "log-fresh"
                assert report is None
                assert reply["version"]["number"] == 1
                assert reply["probe_peer"] == 2
                assert reply["peer_version"] == 1

                after = await cluster.aggregate_stats()
                metrics = await cluster.metrics()
                # ZERO data messages; exactly one control round trip
                # (the inquiry at node 1, the report at node 2); replay
                # charged as local reads, per the paper's c_io pricing.
                assert after.data_messages == before.data_messages
                assert after.control_messages == before.control_messages + 2
                assert after.io_reads >= before.io_reads + reply["replayed"]
                assert metrics[1].fresh_rejoins == 1
                assert durability_totals(metrics.values())["wal_replayed"] > 0

                # The journaled join-list came back too: the next write
                # at 1 invalidates outsider 3, whose next read returns
                # the new version instead of the stale copy.
                # (node 1 records the primary alongside the outsider:
                # both are non-core holders of its last write.)
                status = await cluster.status(1)
                assert status["join_list"] == [2, 3]
                assert status["holds_valid_copy"]
                write = await client.execute(
                    1, "write", rid=3, version=ObjectVersion(2, 1)
                )
                assert write.ok
                read = await client.execute(3, "read", rid=4)
                assert read.ok and read.version.number == 2
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())


class TestStaleFallback:
    def test_stale_log_takes_the_repair_copy_path(self, tmp_path):
        async def scenario():
            # A two-member core ({1, 2}): writes keep flowing with 1 down.
            cluster, client = await booted(
                tmp_path,
                processors=(1, 2, 3, 4),
                scheme={1, 2, 3},
                primary=3,
            )
            repairer = SchemeRepairer(cluster, t=3)
            try:
                write = await client.execute(
                    1, "write", rid=1, version=ObjectVersion(1, 1)
                )
                assert write.ok
                await cluster.crash(1)
                # The cluster moves on while 1 is down: its log is now
                # one version behind.
                write = await client.execute(
                    2, "write", rid=2, version=ObjectVersion(2, 2)
                )
                assert write.ok

                reply, report = await repairer.recover_node(1)
                assert reply["tier"] == "log-stale"
                assert reply["version"]["number"] == 1  # what the log held
                assert reply["peer_version"] == 2  # what the probe found
                assert report is not None
                assert 1 in {target for _, target, _ in report.repaired}
                assert not report.degraded

                read = await client.execute(1, "read", rid=3)
                assert read.ok and read.version.number == 2
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())


class TestDamagedLogs:
    def test_corrupt_tail_recovers_from_the_valid_prefix(self, tmp_path):
        async def scenario():
            cluster, client = await booted(tmp_path)
            repairer = SchemeRepairer(cluster, t=2)
            try:
                write = await client.execute(
                    1, "write", rid=1, version=ObjectVersion(1, 1)
                )
                assert write.ok
                await cluster.crash(1)
                # A partial fsync scribbled the last record (the commit
                # marker); the object record before it survives.
                assert inject_tail_corruption(
                    wal_path(str(tmp_path), 1), offset_from_end=1
                )

                reply, report = await repairer.recover_node(1)
                assert reply["damaged"]
                assert reply["truncated_bytes"] > 0
                # The valid prefix still proves freshness: no copy.
                assert reply["tier"] == "log-fresh"
                assert reply["version"]["number"] == 1
                assert report is None
                metrics = await cluster.metrics()
                assert metrics[1].wal_truncations == 1

                read = await client.execute(1, "read", rid=2)
                assert read.ok and read.version.number == 1
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())

    def test_fully_torn_log_falls_back_to_the_network(self, tmp_path):
        async def scenario():
            cluster, client = await booted(tmp_path)
            repairer = SchemeRepairer(cluster, t=2)
            try:
                write = await client.execute(
                    1, "write", rid=1, version=ObjectVersion(1, 1)
                )
                assert write.ok
                await cluster.crash(1)
                # Tear the whole log away: nothing durable survives.
                inject_torn_tail(wal_path(str(tmp_path), 1), 1 << 20)

                reply, report = await repairer.recover_node(1)
                assert reply["tier"] == "log-empty"
                assert reply["replayed"] == 0
                assert report is not None
                assert 1 in {target for _, target, _ in report.repaired}

                read = await client.execute(1, "read", rid=2)
                assert read.ok and read.version.number == 1
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())


class TestFaultFreeParity:
    def _stepped(self, protocol: str):
        if protocol == "SA":
            return StaticAllocation(SCHEME)
        return DynamicAllocation(SCHEME, primary=PRIMARY)

    def _parity(self, tmp_path, protocol: str):
        schedule = UniformWorkload((1, 2, 3), 80, 0.3).generate(11)

        async def scenario():
            cluster, client = await booted(tmp_path, protocol=protocol)
            try:
                result = await replay_schedule(client, schedule)
                result.raise_on_errors()
                metrics = await cluster.metrics()
                return await cluster.aggregate_stats(), metrics
            finally:
                await client.close()
                await cluster.stop()

        stats, metrics = run(scenario())
        stepped = self._stepped(protocol).run(schedule).total_breakdown()
        assert stats.breakdown() == stepped
        totals = durability_totals(metrics.values())
        # The WAL really ran — it just never touched a charged counter.
        assert totals["wal_appends"] > 0
        assert totals["fresh_rejoins"] == 0

    def test_da_replay_is_bit_identical_with_durability(self, tmp_path):
        self._parity(tmp_path, "DA")

    def test_sa_replay_is_bit_identical_with_durability(self, tmp_path):
        self._parity(tmp_path, "SA")


class TestSnapshots:
    def test_snapshot_compaction_bounds_replay(self, tmp_path):
        async def scenario():
            cluster, client = await booted(tmp_path, snapshot_every=4)
            try:
                for number in range(1, 10):
                    write = await client.execute(
                        1, "write", rid=number,
                        version=ObjectVersion(number, 1),
                    )
                    assert write.ok
                metrics = await cluster.metrics()
                assert durability_totals(metrics.values())[
                    "snapshots_written"
                ] >= 1

                await cluster.crash(1)
                reply = await cluster.recover(1)
                assert reply["tier"] == "log-fresh"
                # Replay folded the snapshot plus a short log suffix,
                # not one record per write since launch.
                assert reply["replayed"] < 9
                assert reply["version"]["number"] == 9
            finally:
                await client.close()
                await cluster.stop()

        run(scenario())


class TestProcessRestart:
    def test_restart_resumes_from_the_state_dir(self, tmp_path):
        async def first_life():
            cluster, client = await booted(tmp_path)
            try:
                write = await client.execute(
                    1, "write", rid=1, version=ObjectVersion(3, 1)
                )
                assert write.ok
            finally:
                await client.close()
                await cluster.stop()

        async def second_life():
            cluster, client = await booted(tmp_path)
            try:
                status = await cluster.status(1)
                metrics = await cluster.metrics()
                return status, metrics
            finally:
                await client.close()
                await cluster.stop()

        run(first_life())
        status, metrics = run(second_life())
        assert status["durable"]
        # The stored version survived the process boundary; the copy is
        # suspect (invalid) until a probe or repair revalidates it.
        assert status["version"]["number"] == 3
        assert not status["holds_valid_copy"]
        assert status["latest_commit"] == 3
        # Replay was charged as local reads at construction time.
        assert metrics[1].io_reads >= 1
        assert metrics[1].wal_replayed >= 1
