"""Client load generation against a live cluster.

Two modes, matching the two ways the paper's schedules are read:

* :func:`replay_schedule` — **closed loop**: a
  :class:`~repro.model.schedule.Schedule` (parsed, generated, or loaded
  from a trace file) is replayed request by request, each routed to the
  node of its issuing processor and run to quiescence before the next
  starts.  This realizes the paper's totally-ordered schedule exactly,
  which is what makes live message counts comparable bit-for-bit with
  the stepped accounting.
* :func:`poisson_load` — **open loop**: requests arrive as a Poisson
  process (seeded, reproducible) and may overlap in flight; useful for
  exercising concurrency and latency behaviour, *not* for count parity
  (the paper's accounting is defined over serialized schedules).

The client assigns globally unique request ids (1, 2, ...) and, for
writes, version numbers from a counter starting at 1 — continuing the
uncharged seed version 0 exactly like the simulator's version counter.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.cluster.resilience import RetryPolicy
from repro.cluster.rpc import version_from_wire, version_to_wire, write_frame
from repro.cluster.transport import Address, Links
from repro.exceptions import ClusterError
from repro.model.schedule import Schedule
from repro.storage.versions import ObjectVersion


@dataclass
class RequestOutcome:
    """What happened to one client request."""

    rid: int
    node: int
    op: str  # "read" | "write"
    ok: bool
    version: Optional[ObjectVersion] = None
    error: Optional[str] = None
    #: Client-observed wall-clock latency, in seconds.
    latency: float = 0.0
    #: Transport-level re-sends this request needed (0 without faults).
    retries: int = 0
    #: True when the node rejected the request in degraded mode
    #: (:class:`~repro.exceptions.ClusterDegradedError` on the far side).
    degraded: bool = False


@dataclass
class LoadResult:
    """Aggregate outcome of one load run."""

    outcomes: List[RequestOutcome] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.ok)

    @property
    def errors(self) -> int:
        return sum(1 for outcome in self.outcomes if not outcome.ok)

    @property
    def latencies(self) -> List[float]:
        return [outcome.latency for outcome in self.outcomes if outcome.ok]

    def raise_on_errors(self) -> None:
        failed = [outcome for outcome in self.outcomes if not outcome.ok]
        if failed:
            first = failed[0]
            raise ClusterError(
                f"{len(failed)} of {len(self.outcomes)} requests failed; "
                f"first: request {first.rid} at node {first.node}: "
                f"{first.error}"
            )


class ClusterClient:
    """Multiplexed client connections to every node of a cluster.

    One connection per node; its socket callback resolves reply frames
    to their waiting callers by request id (:meth:`request`, which the
    launcher's admin plane uses too) — so the open-loop
    generator can keep many requests in flight per node, and one
    connection's death fails only the callers waiting on *it*.
    Concurrent first calls to a node share a single dial.

    With a :class:`~repro.cluster.resilience.RetryPolicy` installed, the
    client is the outer half of at-least-once RPC: transport-level
    failures (a dead connection, a refused dial) are retried with seeded
    backoff under the *same* request id, so the node-side dedup cache
    absorbs duplicates.  Application-level replies — ``ok=False``
    results, degraded rejections — are **never** retried: the node
    answered; retrying would re-run a request the cluster already
    decided on.  Timeouts are not retried either: slowness is not a
    settled failure, and a duplicate of a still-running request races
    its original."""

    def __init__(
        self,
        addresses: Mapping[int, Address],
        timeout: float = 30.0,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.addresses = dict(addresses)
        self.timeout = timeout
        self.retry = retry
        # node_id -1: a stream disjoint from every node's transport RNG.
        self._retry_rng = retry.rng_for(-1) if retry is not None else None
        self._links = Links(self.addresses)

    async def request(
        self,
        node_id: int,
        payload: Mapping[str, object],
        rid: int = 0,
        timeout: Optional[float] = None,
    ) -> Dict[str, object]:
        """Send one frame to a node and await its reply, the frame with
        the same ``rid``; past ``timeout`` seconds the wait raises
        :class:`asyncio.TimeoutError`.  A reply names only its ``rid``,
        so a second request under a ``rid`` already waiting on this
        node's connection raises :class:`ClusterError` at once."""
        conn, replies = await self._links.get(node_id)
        if rid in replies:
            raise ClusterError(f"request {rid} is already waiting on node {node_id}")
        loop = asyncio.get_running_loop()
        reply = replies[rid] = loop.create_future()
        deadline = (
            loop.call_later(timeout, _time_out, reply) if timeout is not None else None
        )
        try:
            await write_frame(conn, payload)
            return await reply
        except ConnectionError:
            self._links.drop(node_id, conn)
            raise
        finally:
            if deadline is not None:
                deadline.cancel()
            if replies.get(rid) is reply:
                del replies[rid]

    async def execute(
        self,
        node_id: int,
        op: str,
        rid: int,
        version: Optional[ObjectVersion] = None,
    ) -> RequestOutcome:
        """Run one request on a node; never raises for protocol-level
        failures — inspect the outcome's ``ok``/``error``."""
        frame: Dict[str, object] = {"type": "exec", "rid": rid, "op": op}
        if version is not None:
            frame["version"] = version_to_wire(version)
        started = time.monotonic()
        attempts = self.retry.attempts if self.retry is not None else 1
        retries = 0
        last_error = "request was never attempted"
        for attempt in range(attempts):
            try:
                reply = await self.request(node_id, frame, rid, self.timeout)
            except asyncio.TimeoutError:
                last_error = f"client timed out after {self.timeout}s"
                break
            except (ClusterError, ConnectionError, OSError) as error:
                last_error = str(error)
                if attempt + 1 < attempts:
                    retries += 1
                    await asyncio.sleep(
                        self.retry.backoff(attempt, self._retry_rng)
                    )
                continue
            return RequestOutcome(
                rid=rid,
                node=node_id,
                op=op,
                ok=bool(reply.get("ok")),
                version=version_from_wire(reply.get("version")),
                error=reply.get("error"),
                latency=time.monotonic() - started,
                retries=retries,
                degraded=bool(reply.get("degraded")),
            )
        return RequestOutcome(
            rid=rid,
            node=node_id,
            op=op,
            ok=False,
            error=last_error,
            latency=time.monotonic() - started,
            retries=retries,
        )

    async def close(self) -> None:
        await self._links.close()


def _time_out(future: asyncio.Future) -> None:
    if not future.done():
        future.set_exception(asyncio.TimeoutError())


async def replay_schedule(
    client: ClusterClient,
    schedule: Schedule,
    check_freshness: bool = True,
    fail_fast: bool = False,
) -> LoadResult:
    """Replay a schedule closed-loop: one request at a time, in order.

    With ``check_freshness`` (only sound without faults), every
    successful read must return the latest written version — a
    consistency oracle on top of the count parity."""
    result = LoadResult()
    latest = 0  # the seed version's number
    for index, request in enumerate(schedule):
        rid = index + 1
        if request.is_write:
            version = ObjectVersion(latest + 1, request.processor)
            outcome = await client.execute(
                request.processor, "write", rid, version
            )
            if outcome.ok:
                latest += 1
        else:
            outcome = await client.execute(request.processor, "read", rid)
            if outcome.ok and check_freshness:
                got = outcome.version.number if outcome.version else None
                if got != latest:
                    raise ClusterError(
                        f"stale read: request {rid} at processor "
                        f"{request.processor} returned version {got}, "
                        f"expected {latest}"
                    )
        result.outcomes.append(outcome)
        if fail_fast and not outcome.ok:
            break
    return result


async def poisson_load(
    client: ClusterClient,
    processors: Sequence[int],
    count: int,
    rate: float,
    write_fraction: float = 0.2,
    seed: int = 0,
) -> LoadResult:
    """Open-loop Poisson arrivals: fire-and-gather, overlap allowed.

    ``rate`` is the arrival rate in requests/second.  Versions are
    numbered by issue order; with overlapping writes the cluster's
    serialization may differ, so no freshness oracle applies here."""
    if count < 1:
        raise ClusterError("poisson_load needs a positive request count")
    if rate <= 0:
        raise ClusterError("the arrival rate must be positive")
    if not processors:
        raise ClusterError("poisson_load needs at least one processor")
    rng = random.Random(seed)
    tasks: List[asyncio.Task] = []
    version = 0
    for index in range(count):
        rid = index + 1
        processor = rng.choice(list(processors))
        if rng.random() < write_fraction:
            version += 1
            tasks.append(
                asyncio.ensure_future(
                    client.execute(
                        processor,
                        "write",
                        rid,
                        ObjectVersion(version, processor),
                    )
                )
            )
        else:
            tasks.append(
                asyncio.ensure_future(client.execute(processor, "read", rid))
            )
        await asyncio.sleep(rng.expovariate(rate))
    outcomes = await asyncio.gather(*tasks)
    return LoadResult(outcomes=list(outcomes))


def route_check(schedule: Schedule, processors: Sequence[int]) -> None:
    """Fail early if the schedule names a processor with no node."""
    available = set(processors)
    missing = sorted(
        {
            request.processor
            for request in schedule
            if request.processor not in available
        }
    )
    if missing:
        raise ClusterError(
            f"schedule touches processors {missing} but the cluster only "
            f"runs {sorted(available)}"
        )
