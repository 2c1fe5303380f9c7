"""The live-cluster workloads: ``da-reads`` and ``sa-durable-writes``.

Eight in-process nodes (``start_local_cluster``) over Unix sockets,
driven closed-loop through ``ClusterClient`` with one request in flight,
all from this process's single event-loop thread.  A run's timed phase
replays a fixed, seeded schedule of ``--seconds`` times the reference
rate requests, so its charged counts are a pure function of the seed
and are gated against the stepped model exactly.
"""

from __future__ import annotations

import asyncio
import gc
import math
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple

import repro.kernel as kernel
from repro.cluster import rpc
from repro.cluster.launcher import ClusterSpec, LocalCluster, start_local_cluster
from repro.cluster.loadgen import ClusterClient, RequestOutcome, replay_schedule
from repro.cluster.metrics import (
    NodeMetrics,
    aggregate,
    percentile,
    resilience_totals,
)
from repro.cluster.protocol import LiveDynamicAllocation, LiveStaticAllocation
from repro.cluster.resilience import DedupCache, RetryPolicy, SchemeRepairer
from repro.cluster.transport import PeerTransport
from repro.core.offline_optimal import OfflineOptimal
from repro.exceptions import ClusterError
from repro.model.accounting import CostBreakdown
from repro.model.schedule import Schedule
from repro.storage.snapshot import SnapshotStore
from repro.storage.wal import WriteAheadLog
from repro.workloads.uniform import UniformWorkload

from perfbench import offline
from perfbench.common import (
    SETUP_REPEATS,
    GateFailure,
    RunResult,
    WorkDir,
    gate,
    peak_rss_mb,
)
from perfbench.metrics import PER_LAYER, RECOVERY_TIERS
from perfbench.tracing import LoopProbe, Patches, Tracer, traced_async, traced_sync

_now = time.perf_counter

NODES = tuple(range(1, 9))
SCHEME = offline.INITIAL_SCHEME
#: The schedule's first requests are set-up, not timed: they dial every
#: connection and run every code path once.
WARMUP_REQUESTS = 300
#: Timed requests of each pass of a traced run (untraced, then traced).
TRACE_REQUESTS = 6000
#: Crash/recover rounds over every node after the timed replay.
RECOVERY_ROUNDS = 4
#: Timed requests are measured in blocks of this many; throughput and
#: latency percentiles are medians over the blocks, so a slow spell of
#: the machine moves one block, not the whole run.
BLOCK_REQUESTS = 5000
#: Kernel evaluations of the replayed schedule; ``kernel_rps`` is the median.
KERNEL_REPEATS = 16
#: 60-request windows of the replayed schedule solved exactly.
OPT_WINDOWS = 200


@dataclass(frozen=True)
class LiveWorkload:
    name: str
    protocol: str
    write_fraction: float
    durable: bool
    #: Closed-loop requests/s on the 2-vCPU machine the benchmark was
    #: defined on; a run times ``seconds * reference_rps`` requests.
    reference_rps: float

    def timed_requests(self, seconds: float) -> int:
        return max(1, round(seconds * self.reference_rps))


WORKLOADS = {
    "da-reads": LiveWorkload("da-reads", "DA", 0.2, False, 4000.0),
    "sa-durable-writes": LiveWorkload("sa-durable-writes", "SA", 0.5, True, 3500.0),
}


def stepped_algorithm(protocol: str):
    return dict(offline.algorithms())[protocol]


def expected_breakdown(protocol: str, schedule: Schedule) -> CostBreakdown:
    """What the paper's stepped model charges for ``schedule``."""
    return stepped_algorithm(protocol).run(schedule).total_breakdown()


# -- one pass over a cluster --------------------------------------------------


@dataclass
class LivePass:
    """One closed-loop replay: ``warmup`` set-up requests, then the
    timed ones."""

    schedule: Schedule
    outcomes: List[RequestOutcome]
    #: When each request completed.
    done_at: List[float]
    #: When each block's first request was sent, by its index.
    started_at: Dict[int, float]
    #: When the cluster's launch began.
    launched: float
    warmup: int
    per_node: Dict[int, NodeMetrics]

    @property
    def setup_s(self) -> float:
        return self.done_at[self.warmup - 1] - self.launched

    @property
    def timed(self) -> List[RequestOutcome]:
        return self.outcomes[self.warmup :]

    def blocks(self) -> List[range]:
        """Index ranges of the timed blocks."""
        edges = block_starts(len(self.outcomes)) + [len(self.outcomes)]
        return [range(lo, hi) for lo, hi in zip(edges, edges[1:])]

    def block_throughputs(self) -> List[float]:
        return [
            len(block) / (self.done_at[block[-1]] - self.started_at[block.start])
            for block in self.blocks()
        ]

    @property
    def throughput(self) -> float:
        """Median over blocks of completed requests per second."""
        return median(self.block_throughputs())

    def latency_ms(self, fraction: float) -> float:
        """Median over blocks of the client-observed latency percentile;
        a failed request never meets a limit."""
        return median(
            [
                percentile(
                    [
                        o.latency * 1e3 if o.ok else math.inf
                        for o in self.outcomes[block.start : block.stop]
                    ],
                    fraction,
                )
                for block in self.blocks()
            ]
        )


def block_starts(requests: int) -> List[int]:
    """Indices of the first request of each timed block of a schedule
    of ``requests`` (set-up included); the remainder joins the last."""
    count = max(1, (requests - WARMUP_REQUESTS) // BLOCK_REQUESTS)
    return [WARMUP_REQUESTS + i * BLOCK_REQUESTS for i in range(count)]


class _Stamps:
    """Stands in for the client in ``replay_schedule``: records when
    each request completed, starts the tracing after the set-up
    requests, and runs ``between`` (untimed) before each timed block."""

    def __init__(self, client: ClusterClient, starts: List[int], tracing, between) -> None:
        self.client = client
        self.starts = set(starts)
        self.tracing = tracing
        self.between = between
        self.done_at: List[float] = []
        self.started_at: Dict[int, float] = {}

    async def execute(self, *args, **kwargs) -> RequestOutcome:
        index = len(self.done_at)
        if index in self.starts:
            if index == WARMUP_REQUESTS and self.tracing is not None:
                self.tracing.start()
            if self.between is not None:
                self.between()
            self.started_at[index] = _now()
        outcome = await self.client.execute(*args, **kwargs)
        self.done_at.append(_now())
        return outcome


class _Tracing:
    """The traced pass's instrumentation, on for the timed requests only."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.probe = LoopProbe()
        self._patches = Patches()

    def start(self) -> None:
        _instrument(self.tracer, self._patches)
        self.probe.install(self._patches)

    def stop(self) -> None:
        self.probe.uninstall()
        self._patches.undo()


async def _launch(
    workload: LiveWorkload, seed: int, work: WorkDir
) -> Tuple[LocalCluster, ClusterClient]:
    retry = RetryPolicy(seed=seed) if workload.durable else None
    spec = ClusterSpec(
        processors=NODES,
        scheme=SCHEME,
        protocol=workload.protocol,
        transport="unix",
        resilience=retry,
        state_dir=work.fresh("state") if workload.durable else None,
    )
    cluster = await start_local_cluster(spec)
    client = ClusterClient(cluster.addresses, retry=retry)
    await cluster.ping_all()
    return cluster, client


async def _close(cluster: LocalCluster, client: ClusterClient) -> None:
    try:
        await client.close()
    finally:
        await cluster.stop()


async def _replay(
    workload: LiveWorkload,
    cluster: LocalCluster,
    client: ClusterClient,
    schedule: Schedule,
    launched: float,
    tracing: Optional[_Tracing] = None,
    between=None,
) -> LivePass:
    """Replay ``schedule`` closed-loop under the freshness oracle, then
    collect node metrics and gate the pass (before any recovery, which
    charges replay I/O and probe messages)."""
    stamps = _Stamps(client, block_starts(len(schedule)), tracing, between)
    try:
        loaded = await replay_schedule(
            stamps, schedule, check_freshness=True, fail_fast=True
        )
    except ClusterError as error:
        raise GateFailure(f"freshness oracle: {error}") from error
    finally:
        if tracing is not None:
            tracing.stop()
    outcomes = loaded.outcomes
    done = LivePass(
        schedule, outcomes, stamps.done_at, stamps.started_at, launched,
        WARMUP_REQUESTS, await cluster.metrics(),
    )
    failed = [o for o in outcomes if not o.ok]
    gate(
        not failed and len(outcomes) == len(schedule),
        f"{len(failed)} of {len(schedule)} requests failed"
        + (f"; first: {failed[0].error}" if failed else ""),
    )
    live = aggregate(done.per_node.values()).breakdown()
    expected = expected_breakdown(workload.protocol, schedule)
    gate(live == expected, f"charged counts: live {live} != stepped {expected}")
    extra = resilience_totals(done.per_node.values())
    gate(
        extra["retries_sent"] == 0 and extra["dedup_hits"] == 0,
        f"fault-free run retried or deduplicated: {extra}",
    )
    return done


async def _recover_all(
    cluster: LocalCluster, client: ClusterClient, schedule: Schedule
) -> Tuple[List[float], Counter]:
    """Fail-stop crash and tiered recovery of every node, then a read
    sweep: each node must return the last acknowledged version."""
    repairer = SchemeRepairer(cluster, t=len(SCHEME))
    seconds: List[float] = []
    tiers: Counter = Counter()
    for _ in range(RECOVERY_ROUNDS):
        for node in NODES:
            await cluster.crash(node)
            started = _now()
            reply, report = await repairer.recover_node(node)
            seconds.append(_now() - started)
            tiers[reply["tier"]] += 1
            gate(
                report is None or not report.degraded,
                f"recovery of node {node} left the cluster degraded: "
                + (report.describe() if report else ""),
            )
    latest = sum(1 for request in schedule if request.is_write)
    rid = len(schedule)
    for node in NODES:
        rid += 1
        outcome = await client.execute(node, "read", rid)
        got = outcome.version.number if outcome.version else None
        gate(
            outcome.ok and got == latest,
            f"after recovery node {node} read version {got} "
            f"({outcome.error or 'ok'}), last acknowledged {latest}",
        )
    return seconds, tiers


# -- the offline engine on the replayed schedule --------------------------------


class OfflineSamples:
    """The offline engine on the replayed schedule: the kernel, timed
    as SA+DA evaluations, and the exact OPT of its 60-request windows.

    Samples are taken in one chunk before each timed block of the replay
    (outside the block's timing), so they see the machine in the same
    states as the live requests, and a slow spell moves a minority of
    them, not their median.
    """

    def __init__(self, workload: LiveWorkload, schedule: Schedule) -> None:
        self.schedule = schedule
        self.chunks = len(block_starts(len(schedule)))
        expected = expected_breakdown(workload.protocol, schedule)
        corner = kernel.schedule_breakdown(
            stepped_algorithm(workload.protocol), schedule
        )
        gate(corner == expected, f"kernel counts {corner} != stepped {expected}")
        width = offline.DP_REQUESTS
        self.windows = [
            schedule[i * width : (i + 1) * width]
            for i in range(min(OPT_WINDOWS, len(schedule) // width))
        ]
        self.solver = OfflineOptimal(offline.MODEL, max_processors=len(NODES))
        self.passes: List[offline.KernelPass] = []
        #: Seconds of each DP solve, per chunk.
        self.solves: List[List[float]] = []

    def sample(self) -> None:
        chunk = len(self.solves)
        self.passes += [
            offline.evaluate([self.schedule])
            for _ in range(max(1, KERNEL_REPEATS // self.chunks))
        ]
        windows = self.windows[chunk :: self.chunks]
        opt, solve_s = offline.solve_suite(self.solver, windows)
        offline.check_bounds(opt, offline.evaluate(windows).totals)
        self.solves.append(solve_s)

    @property
    def kernel_rps(self) -> float:
        return median([2 * len(self.schedule) / p.seconds for p in self.passes])

    @property
    def solves_per_s(self) -> float:
        return median([len(chunk) / sum(chunk) for chunk in self.solves])


# -- tracing --------------------------------------------------------------------


def _arg(index: int, key: str):
    def rid_of(args, kwargs):
        if key in kwargs:
            return kwargs[key]
        return args[index] if len(args) > index else None

    return rid_of


def _payload_rid(index: int):
    return lambda args, kwargs: args[index].get("rid")


def _message_rid(index: int):
    return lambda args, kwargs: getattr(args[index], "request_id", None)


def _instrument(tracer: Tracer, patches: Patches) -> None:
    """Wrap the public calls into each cluster layer."""

    def capture(frame, args, state):
        tracer.frames.append(frame)

    def wal_bytes(record, args, size_before):
        tracer.wal_bytes += args[0].size() - size_before

    encode = rpc.encode_frame
    patches.everywhere(
        encode,
        traced_sync(tracer, "rpc.encode_frame", encode, _payload_rid(0), after=capture),
    )
    write = rpc.write_frame
    patches.everywhere(
        write, traced_async(tracer, "rpc.write_frame", write, _payload_rid(1))
    )
    patches.set(
        ClusterClient,
        "execute",
        traced_async(tracer, "loadgen.execute", ClusterClient.execute, _arg(3, "rid")),
    )
    patches.set(
        PeerTransport,
        "send_protocol",
        traced_async(
            tracer, "transport.send_protocol", PeerTransport.send_protocol,
            _message_rid(1),
        ),
    )
    patches.set(
        PeerTransport,
        "send_done",
        traced_async(
            tracer, "transport.send_done", PeerTransport.send_done, _arg(2, "rid")
        ),
    )
    for cls in (LiveStaticAllocation, LiveDynamicAllocation):
        for method, rid_of in (
            ("client_read", _arg(1, "rid")),
            ("client_write", _arg(1, "rid")),
            ("handle_message", _message_rid(1)),
        ):
            patches.set(
                cls,
                method,
                traced_async(tracer, f"protocol.{method}", vars(cls)[method], rid_of),
            )
    for method in ("lookup", "store"):
        patches.set(
            DedupCache,
            method,
            traced_sync(
                tracer, f"resilience.dedup_{method}", vars(DedupCache)[method],
                _arg(1, "rid"),
            ),
        )
    patches.set(
        WriteAheadLog,
        "append",
        traced_sync(
            tracer, "wal.append", WriteAheadLog.append,
            before=lambda args: args[0].size(), after=wal_bytes,
        ),
    )
    patches.set(
        SnapshotStore,
        "save",
        traced_sync(tracer, "snapshot.save", SnapshotStore.save),
    )


async def _decode_seconds(frames: Sequence[bytes]) -> float:
    """Time ``read_frame`` on the captured frame bytes, fed back from
    memory — whatever the codec is, this is its decode cost."""
    reader = asyncio.StreamReader()
    reader.feed_data(b"".join(frames))
    reader.feed_eof()
    started = _now()
    for _ in frames:
        await rpc.read_frame(reader)
    return _now() - started


def _service_pairs(done: LivePass) -> List[Tuple[float, float]]:
    """``(client latency, node service time)`` of every timed request.
    With one request in flight, each node's latency list is in the
    order the client issued requests to it."""
    pairs: List[Tuple[float, float]] = []
    for node, metrics in done.per_node.items():
        sent = [o for o in done.outcomes if o.node == node]
        gate(
            len(sent) == len(metrics.latencies),
            f"node {node} timed {len(metrics.latencies)} requests, "
            f"client sent {len(sent)}",
        )
        pairs += [
            (o.latency, service)
            for o, service in zip(sent, metrics.latencies)
            if o.rid > done.warmup
        ]
    return pairs


def _layer_metrics(
    plain: LivePass,
    traced: LivePass,
    tracer: Tracer,
    probe: LoopProbe,
    decode_s: float,
    recovery: Tuple[List[float], Counter],
    samples: OfflineSamples,
) -> Dict[str, float]:
    # Span counts cover the timed requests; charged counts the whole
    # schedule, set-up requests included.
    n = len(traced.timed)
    writes = sum(1 for request in traced.schedule[traced.warmup :] if request.is_write)
    charged = aggregate(traced.per_node.values())
    per_request = len(traced.schedule)
    extra = resilience_totals(traced.per_node.values())
    pairs = _service_pairs(plain)
    service = [s for _, s in pairs]
    wal_us = [d * 1e6 for d in tracer.durations("wal.append")]
    saves_ms = [d * 1e3 for d in tracer.durations("snapshot.save")]
    protocol_self = sum(
        sum(tracer.self_times(f"protocol.{method}"))
        for method in ("client_read", "client_write", "handle_message")
    )
    dedup = sum(
        sum(tracer.durations(f"resilience.dedup_{method}"))
        for method in ("lookup", "store")
    )
    recover_s, tiers = recovery

    def p(values: Sequence[float], fraction: float) -> float:
        return percentile(values, fraction) if values else 0.0

    def per_write(value: float) -> float:
        return value / writes if writes else 0.0

    layers = {
        "loop.tasks_per_req": probe.tasks / n,
        "loop.timers_per_req": probe.timers / n,
        "loop.lag_p99_ms": p(probe.lags, 0.99) * 1e3,
        "gc.pause_ms_per_kreq": probe.gc_pause * 1e3 / (n / 1000),
        "loadgen.client_overhead_us": p([c - s for c, s in pairs], 0.5) * 1e6,
        "node.service_p50_ms": p(service, 0.50) * 1e3,
        "node.service_p99_ms": p(service, 0.99) * 1e3,
        "node.io_per_req": (charged.io_reads + charged.io_writes) / per_request,
        "rpc.frames_per_req": len(tracer.frames) / n,
        "rpc.bytes_per_req": sum(len(frame) for frame in tracer.frames) / n,
        "rpc.encode_us_per_req": sum(tracer.durations("rpc.encode_frame")) * 1e6 / n,
        "rpc.decode_us_per_req": decode_s * 1e6 / n,
        "transport.send_us_p50": p(tracer.durations("transport.send_protocol"), 0.5) * 1e6,
        "transport.done_per_req": tracer.count("transport.send_done") / n,
        "transport.ctrl_per_req": charged.control_messages / per_request,
        "transport.data_per_req": charged.data_messages / per_request,
        "protocol.self_us_per_req": protocol_self * 1e6 / n,
        "resilience.dedup_us_per_req": dedup * 1e6 / n,
        "resilience.retries_sent": extra["retries_sent"],
        "resilience.dedup_hits": extra["dedup_hits"],
        "wal.appends_per_write": per_write(len(wal_us)),
        "wal.bytes_per_write": per_write(tracer.wal_bytes),
        "wal.append_us_p50": p(wal_us, 0.50),
        "wal.append_us_p99": p(wal_us, 0.99),
        "snapshot.saves_per_kreq": len(saves_ms) * 1000 / n,
        "snapshot.save_ms_p50": p(saves_ms, 0.5),
        "durability.recover_ms_p50": p(recover_s, 0.5) * 1e3,
        "kernel.compile_s": median([k.compile_s for k in samples.passes]),
        "kernel.eval_s": median([k.eval_s for k in samples.passes]),
        "dp.solve_ms_p50": median([s for chunk in samples.solves for s in chunk]) * 1e3,
        "trace.throughput_rps_untraced": plain.throughput,
        "trace.throughput_rps_traced": traced.throughput,
        "trace.overhead_ratio": traced.throughput / plain.throughput,
    }
    for tier in RECOVERY_TIERS:
        layers[f"durability.recoveries.{tier}"] = tiers.get(tier, 0)
    return layers


# -- the workload ---------------------------------------------------------------


async def _run(
    workload: LiveWorkload, seed: int, seconds: float, trace: bool, work: WorkDir
) -> RunResult:
    result = RunResult()
    timed = workload.timed_requests(seconds)
    if trace:
        timed = min(timed, TRACE_REQUESTS)
    schedule = UniformWorkload(
        NODES, WARMUP_REQUESTS + timed, workload.write_fraction
    ).generate(seed)
    offline_samples = OfflineSamples(workload, schedule)

    # Set-up is a launch plus the warm-up requests.  It runs
    # SETUP_REPEATS times: the throw-away clusters replay only the
    # warm-up prefix; the last one goes on into the timed requests.
    warmup = schedule[:WARMUP_REQUESTS]
    setup_s: List[float] = []
    for _ in range(SETUP_REPEATS - 1):
        launched = _now()
        cluster, client = await _launch(workload, seed, work)
        try:
            done = await _replay(workload, cluster, client, warmup, launched)
        finally:
            await _close(cluster, client)
        setup_s.append(done.setup_s)
    gc.collect()
    launched = _now()
    cluster, client = await _launch(workload, seed, work)
    try:
        plain = await _replay(
            workload, cluster, client, schedule, launched,
            between=offline_samples.sample,
        )
        rss = peak_rss_mb()
        recovery: Tuple[List[float], Counter] = ([], Counter())
        if workload.durable:
            recovery = await _recover_all(cluster, client, schedule)
    finally:
        await _close(cluster, client)
    setup_s.append(plain.setup_s)
    result.attempted = len(plain.timed)
    result.failed = sum(1 for o in plain.timed if not o.ok)
    result.note(
        f"{workload.name}: {WARMUP_REQUESTS} set-up + {timed} timed requests "
        f"closed-loop on {len(NODES)} nodes, charged "
        f"{aggregate(plain.per_node.values()).breakdown()} == stepped == kernel"
    )
    result.note(
        f"latency samples: {len(plain.timed)} requests in "
        f"{len(plain.blocks())} blocks; block throughputs "
        f"{[round(t) for t in plain.block_throughputs()]}"
    )
    if recovery[0]:
        result.note(
            f"recovery: {len(recovery[0])} crash/recover cycles, tiers "
            f"{dict(sorted(recovery[1].items()))}, read sweep ok"
        )
    if not trace:
        result.put("throughput_rps", plain.throughput, "req/s")
        result.put("latency_p50_ms", plain.latency_ms(0.50), "ms")
        result.put("latency_p99_ms", plain.latency_ms(0.99), "ms")
        result.put("kernel_rps", offline_samples.kernel_rps, "req/s")
        result.put("opt_solves_per_s", offline_samples.solves_per_s, "1/s")
        result.put("setup_s", median(setup_s), "s")
        result.put("peak_rss_mb", rss, "MiB")
        return result

    # The traced pass: the same schedule on a fresh cluster, with every
    # layer wrapped from the first timed request to the last.
    tracing = _Tracing()
    launched = _now()
    cluster, client = await _launch(workload, seed, work)
    try:
        traced = await _replay(workload, cluster, client, schedule, launched, tracing)
    finally:
        await _close(cluster, client)
    decode_s = await _decode_seconds(tracing.tracer.frames)
    layers = _layer_metrics(
        plain, traced, tracing.tracer, tracing.probe, decode_s, recovery,
        offline_samples,
    )
    for name, value in layers.items():
        result.put(name, value, PER_LAYER[name])
    result.tracer = tracing.tracer
    return result


def run(name: str, seed: int, seconds: float, trace: bool, work: WorkDir) -> RunResult:
    previous = tempfile.tempdir
    # The launcher makes its socket directory under tempfile's default;
    # keep it inside the run's (relative) work directory.
    tempfile.tempdir = work.path
    try:
        return asyncio.run(_run(WORKLOADS[name], seed, seconds, trace, work))
    finally:
        tempfile.tempdir = previous
