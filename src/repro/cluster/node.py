"""One live processor: an asyncio server wrapping a LocalDatabase.

A :class:`NodeServer` is the live analogue of
:class:`repro.distsim.node.Node`: it owns the processor's
:class:`~repro.storage.local_db.LocalDatabase`, its volatile protocol
state (the DA join-list), and its share of the metrics — and it listens
on a socket instead of being poked by a discrete-event loop.  Every
connection speaks the frame vocabulary of :mod:`repro.cluster.rpc`:

* ``exec`` frames from clients run one read/write through the node's
  live protocol adapter and answer with a ``result`` frame;
* ``msg`` frames from peers carry charged protocol messages;
* ``done`` frames resolve outstanding work units (the uncharged
  completion oracle);
* admin frames (``ping``/``metrics``/``set_peers``/``fault``/
  ``reset_metrics``/``crash``/``recover``/``shutdown``) let launchers
  and tests steer the node.

Crash semantics mirror :mod:`repro.distsim.failures`' fail-stop model:
a crashed node wipes its join-list, marks its stable copy suspect, and
*drops* incoming protocol messages — counting the drop and notifying
the sender's completion oracle so the origin can resolve the work unit
(writes) or fail fast (reads), exactly like the simulated network's
``on_dropped`` rule.
"""

from __future__ import annotations

import asyncio
import functools
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Mapping, Optional, Set, Tuple

from repro.cluster.durability import DEFAULT_SNAPSHOT_EVERY, NodeDurability
from repro.cluster.metrics import NodeMetrics
from repro.cluster.protocol import make_live_protocol
from repro.cluster.resilience import DedupCache, RetryPolicy
from repro.cluster.rpc import (
    FrameProtocol,
    encode_frame,
    run_eagerly,
    version_from_wire,
    version_to_wire,
    wire_to_message,
    write_frame,
)
from repro.cluster.transport import Address, FaultPlan, PeerTransport, start_server
from repro.exceptions import (
    ClusterDegradedError,
    ClusterError,
    ProtocolError,
    StorageError,
)
from repro.distsim.messages import VersionInquiry, VersionReport
from repro.storage.local_db import LocalDatabase
from repro.storage.versions import ObjectVersion

#: Request ids of recovery freshness probes.  Above the repairer's
#: ``REPAIR_RID_BASE`` band, so a probe pending can collide with
#: neither a client request nor a repair transfer.
PROBE_RID_BASE = 2_000_000_000

def _settle(future: asyncio.Future, value: Any) -> None:
    if not future.done():
        future.set_result(value)


@dataclass
class NodeConfig:
    """Static configuration one node is started with."""

    node_id: int
    scheme: Iterable[int]
    protocol: str = "DA"
    primary: Optional[int] = None
    address: Optional[Address] = None
    #: Hard ceiling on one client request, enforced by a cancellable
    #: timer: a request stalled by extreme fault plans fails loudly
    #: instead of wedging the node.
    exec_timeout: float = 15.0
    #: Opt-in fault tolerance.  ``None`` (the default) reproduces PR 3's
    #: behavior byte for byte — no retries, no dedup, no degraded-mode
    #: write rejection — which is what the parity invariant relies on.
    resilience: Optional[RetryPolicy] = None
    #: Opt-in durability: the directory this node journals its state
    #: under (``<state_dir>/node-<id>/``).  ``None`` keeps the node
    #: fully volatile — PR 4's behavior, byte for byte.  With a state
    #: dir, fault-free traffic is *still* byte-identical (appends are
    #: uncharged riders on already-charged I/O); only recovery changes,
    #: gaining the tiered log-replay path.
    state_dir: Optional[str] = None
    #: WAL records between snapshots (bounds replay length).
    snapshot_every: int = DEFAULT_SNAPSHOT_EVERY
    #: fsync every WAL append.  Off by default: flush-only is durable
    #: against the fail-stop process crashes the model simulates.
    wal_sync: bool = False


@dataclass
class PendingRequest:
    """An in-flight client request awaiting downstream work units.

    The live twin of the simulator's
    :class:`~repro.distsim.protocols.base.RequestContext`: ``units``
    counts outstanding sub-operations; the future resolves when the
    request reached quiescence (for reads, with the version)."""

    rid: int
    kind: str  # "r" | "w"
    units: int
    future: asyncio.Future
    version: Optional[ObjectVersion] = None
    #: Peers whose unit settled because they were crashed (fail-stop
    #: receivers count the drop and notify the oracle).  The resilient
    #: write path inspects this to decide whether any *live* replica
    #: actually took the update.
    crash_settled: Set[int] = field(default_factory=set)

    def resolve(self) -> None:
        if not self.future.done():
            self.future.set_result(self.version)

    async def result(self) -> Optional[ObjectVersion]:
        return await self.future


@dataclass
class _Relay:
    """Invalidations a member of ``F`` fans out on a writer's behalf;
    the upstream store is acknowledged only once they all resolved."""

    upstream: int
    units: int
    #: The invalidation targets (for lazy join-list removal on
    #: crash-settled units in resilient mode).
    targets: Set[int] = field(default_factory=set)
    #: True once any relayed invalidation was permanently lost; the
    #: upstream acknowledgement then carries ``failed`` so the writer
    #: rejects instead of acknowledging over a stale surviving copy.
    failed: bool = False


class _JournaledSet(set):
    """A set that reports each net membership change to a callback.

    The DA join-list must survive crashes for the fresh-rejoin recovery
    tier, so every mutation journals the *full* membership (idempotent
    to fold, safe to truncate).  Only net changes notify: re-adding a
    member or clearing an empty set appends nothing.
    """

    def __init__(self, notify) -> None:
        super().__init__()
        self._notify = notify

    def add(self, item) -> None:
        if item not in self:
            super().add(item)
            self._notify()

    def discard(self, item) -> None:
        if item in self:
            super().discard(item)
            self._notify()

    def remove(self, item) -> None:
        super().remove(item)
        self._notify()

    def update(self, items) -> None:
        fresh = set(items) - self
        if fresh:
            super().update(fresh)
            self._notify()

    def clear(self) -> None:
        if self:
            super().clear()
            self._notify()


class NodeServer:
    """A live processor node serving one replicated object."""

    def __init__(self, config: NodeConfig) -> None:
        self.config = config
        self.node_id = config.node_id
        self.metrics = NodeMetrics(config.node_id)
        self.transport = PeerTransport(
            config.node_id, self.metrics, retry_policy=config.resilience
        )
        self.database = LocalDatabase(config.node_id)
        #: Opt-in durable state (WAL + snapshots); None = fully volatile.
        self.durability: Optional[NodeDurability] = None
        #: Highest version number this node acknowledged a write for.
        self._latest_commit = 0
        if config.state_dir:
            self.durability = NodeDurability(
                config.node_id,
                config.state_dir,
                self.metrics,
                snapshot_every=config.snapshot_every,
                sync=config.wal_sync,
            )
            self.durability.snapshot_state = self._durable_snapshot_state
        #: DA state: processors recorded as saving readers.  Journaled
        #: when durability is on (volatile otherwise, as before).
        self.join_list: Set[int] = _JournaledSet(self._journal_join_state)
        #: DA resilient state: a core member adopted into recording
        #: non-core holders after a repair round (see SchemeRepairer).
        self.steward = False
        self.crashed = False
        self.resilience: Optional[RetryPolicy] = config.resilience
        #: At-least-once dedup: completed exec replies by request id,
        #: plus the in-flight ones a concurrent retry must await.
        self._exec_cache = DedupCache(2048)
        self._exec_inflight: Dict[int, asyncio.Future] = {}
        #: Per-write invalidation targets, for lazy join-list removal
        #: when a target's unit settles by crash (resilient mode).
        self._inval_targets: Dict[int, Set[int]] = {}
        self._pending: Dict[int, PendingRequest] = {}
        self._relays: Dict[int, _Relay] = {}
        #: In-flight recovery freshness probes by request id.
        self._probes: Dict[int, asyncio.Future] = {}
        self._probe_rid = PROBE_RID_BASE + config.node_id * 1_000_000
        self._server = None
        self.address: Optional[Address] = None
        #: Handlers that had to wait, hence became tasks.
        self._tasks: Set[asyncio.Future] = set()
        self._connections: Set[FrameProtocol] = set()
        self._stopped = asyncio.Event()
        # A restarting durable node resumes from its log instead of the
        # launch seed.  Replay happens before the adapter is built so new
        # appends land after the replayed suffix.
        prior = self.durability.recover() if self.durability else None
        has_state = prior is not None and not prior.empty
        # The adapter reads node state (join_list, database), so it is
        # built last; it also validates scheme/primary.  When restoring,
        # its bookkeeping appends (e.g. the DA server seeding its
        # join-list) are muted — the log already records reality.
        mute = self.durability.muted() if has_state else nullcontext()
        with mute:
            self.protocol = make_live_protocol(config.protocol, self)
        if has_state:
            self._restore_durable(prior)
        else:
            self._seed_initial_copy()

    def _seed_initial_copy(self) -> None:
        """Install version 0 uncharged iff this node is in the initial
        scheme — byte-identical to the simulated drivers' seeding."""
        scheme = self.protocol.scheme
        if self.node_id in scheme:
            version = ObjectVersion(0, min(scheme))
            self.database.seed(version)
            if self.durability is not None:
                self.durability.log_seed(version)

    def _restore_durable(self, state) -> None:
        """Resume from the durable state of a previous process.

        The logged version is reinstalled but left *suspect* (invalid):
        the peer mesh is not wired yet, so no freshness probe can run —
        the next repair round (or a crash/recover cycle, which probes)
        revalidates or refreshes it.  Replay is charged into
        ``io_reads``, the paper's ``c_io``, never into messages.
        """
        assert self.durability is not None
        with self.durability.muted():
            if state.version is not None:
                self.database.seed(state.version)
                self.database.invalidate()
            if state.scheme and set(state.scheme) != set(self.protocol.scheme):
                # Only SA ever journals scheme growth; DA's static
                # scheme never reaches this branch.
                self.protocol.update_scheme(state.scheme)
            self.join_list.clear()
            self.join_list.update(state.join_list)
            self.steward = state.steward
        self._latest_commit = state.latest_commit
        self.metrics.io_reads += state.replay_cost

    # -- durability plumbing -----------------------------------------------

    def _journal_join_state(self) -> None:
        if self.durability is not None:
            self.durability.log_join(self.join_list, self.steward)

    def _durable_snapshot_state(self) -> Dict[str, Any]:
        return {
            "version": version_to_wire(self.database.peek_version()),
            "valid": self.database.holds_valid_copy,
            "join_list": sorted(self.join_list),
            "steward": self.steward,
            "scheme": sorted(self.protocol.scheme),
            "latest_commit": self._latest_commit,
        }

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> Address:
        """Bind the listener; returns the actual (resolved) address."""
        if self.config.address is None:
            raise ClusterError(f"node {self.node_id} has no listen address")
        self._server, self.address = await start_server(
            self.config.address, self._accept
        )
        return self.address

    async def serve_forever(self) -> None:
        """Block until a ``shutdown`` admin frame (or `stop()`)."""
        await self._stopped.wait()
        await self.stop()

    async def stop(self) -> None:
        self._stopped.set()
        if self._server is not None:
            self._server.close()
            # Newer servers wait for their connections to close.
            for conn in list(self._connections):
                conn.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        await self.transport.close()
        if self.durability is not None:
            self.durability.close()

    # -- frame dispatch ----------------------------------------------------

    def _accept(self) -> FrameProtocol:
        conn = FrameProtocol(self._dispatch, self._connections.discard)
        self._connections.add(conn)
        return conn

    def _dispatch(self, frame: Mapping[str, Any], conn: FrameProtocol) -> None:
        """Handle one frame inside the socket callback that decoded it."""
        kind = frame["type"]
        if kind == "exec":
            self._handle_exec(frame, conn)
        elif kind == "msg":
            self.launch(self._handle_msg(frame))
        elif kind == "done":
            self.launch(self._handle_done(frame))
        elif kind == "repair":
            self.launch(self._handle_repair_copy(frame))
        elif kind == "repair_send":
            # Async admin: the reply waits for the peer-plane transfer.
            self.launch(self._handle_repair_send(frame, conn))
        elif kind == "recover":
            # Async admin too: durable recovery replays the log and may
            # run a freshness probe round against a peer.
            self.launch(self._handle_recover(frame, conn))
        else:
            self._handle_admin(kind, frame, conn)

    def launch(self, handler) -> asyncio.Future:
        """Run a handler eagerly; only one that has to wait (on a peer,
        a fault-plan delay, a retry backoff) becomes a task, which
        :meth:`stop` cancels."""
        run = run_eagerly(handler)
        if not run.done():
            self._tasks.add(run)
            run.add_done_callback(self._tasks.discard)
        return run

    @staticmethod
    def _reply(conn: FrameProtocol, payload: Mapping[str, Any]) -> None:
        try:
            conn.write(encode_frame(payload))
        except ConnectionError:
            pass  # the asker hung up; nobody is left to answer

    # -- the client plane --------------------------------------------------

    def _handle_exec(self, frame: Mapping[str, Any], conn: FrameProtocol) -> None:
        rid = int(frame.get("rid", 0))
        if self.resilience is not None:
            # At-least-once dedup: a client retry of a request that
            # already ran (or is running) must observe the original
            # outcome, never re-execute a write.
            cached = self._exec_cache.lookup(rid)
            if cached is not None:
                self.metrics.dedup_hits += 1
                self._reply(conn, cached)
                return
            inflight = self._exec_inflight.get(rid)
            if inflight is not None:
                self.metrics.dedup_hits += 1
                inflight.add_done_callback(
                    lambda done: self._reply(conn, done.result())
                )
                return
            self._exec_inflight[rid] = (
                asyncio.get_running_loop().create_future()
            )
        run = self.launch(self._execute(frame, rid))
        if run.done():
            self._reply(conn, run.result())
            return
        # The deadline cancels the request wherever it waits.
        deadline = asyncio.get_running_loop().call_later(
            self.config.exec_timeout, run.cancel
        )
        run.add_done_callback(
            functools.partial(self._reply_when_done, conn, deadline)
        )

    def _reply_when_done(
        self, conn: FrameProtocol, deadline: asyncio.Handle, run: asyncio.Future
    ) -> None:
        deadline.cancel()
        if not run.cancelled():
            self._reply(conn, run.result())

    async def _execute(self, frame: Mapping[str, Any], rid: int) -> Dict[str, Any]:
        """Run one client request; returns its ``result`` reply."""
        started = time.monotonic()
        op = frame.get("op")
        try:
            if self.crashed:
                raise ClusterError(f"node {self.node_id} is crashed")
            if op == "read":
                version = await self.protocol.client_read(rid)
            elif op == "write":
                version = version_from_wire(frame.get("version"))
                if version is None:
                    raise ClusterError("a write exec frame needs a 'version'")
                await self.protocol.client_write(rid, version)
            else:
                raise ClusterError(
                    f"unknown exec op {op!r} (expected read/write)"
                )
        except (
            asyncio.CancelledError,
            ClusterError,
            ProtocolError,
            StorageError,
        ) as error:
            if isinstance(error, asyncio.CancelledError):
                if self._stopped.is_set():
                    raise
                error = ClusterError(
                    f"request {rid} timed out after {self.config.exec_timeout}s"
                )
            self.metrics.request_errors += 1
            self._pending.pop(rid, None)
            self._inval_targets.pop(rid, None)
            payload = {"type": "result", "rid": rid, "ok": False, "error": str(error)}
            if isinstance(error, ClusterDegradedError):
                payload["degraded"] = True
        else:
            self.metrics.requests_completed += 1
            self.metrics.latencies.append(time.monotonic() - started)
            if op == "write":
                # Journal the commit *before* the ack leaves the node:
                # an acknowledged write must be recoverable from the log.
                self._latest_commit = max(self._latest_commit, version.number)
                if self.durability is not None:
                    self.durability.log_commit(rid, version.number)
            payload = {
                "type": "result",
                "rid": rid,
                "ok": True,
                "version": version_to_wire(version),
            }
        if self.resilience is not None:
            self._exec_cache.store(rid, payload)
            inflight = self._exec_inflight.pop(rid, None)
            if inflight is not None and not inflight.done():
                inflight.set_result(payload)
        return payload

    # -- the peer plane ----------------------------------------------------

    async def _handle_msg(self, frame: Mapping[str, Any]) -> None:
        message = wire_to_message(frame)
        if message.receiver != self.node_id:
            raise ClusterError(
                f"node {self.node_id} received {message.describe()} "
                "addressed to someone else"
            )
        if self.crashed:
            # Fail-stop: the message dies at the dead node.  Count the
            # drop and resolve the sender's work unit via the oracle,
            # matching the simulated network's on_dropped rule.
            self.metrics.dropped_messages += 1
            await self.transport.send_done(
                message.sender,
                getattr(message, "request_id", 0),
                dropped=True,
            )
            return
        await self.protocol.handle_message(message)

    async def _handle_done(self, frame: Mapping[str, Any]) -> None:
        rid = int(frame.get("rid", 0))
        dropped = bool(frame.get("dropped", False))
        failed = bool(frame.get("failed", False))
        source = int(frame.get("from", -1))
        if rid in self._relays:
            if dropped and source in self._relays[rid].targets:
                # The target crashed — its copy is invalid, so it is
                # safe to forget (lazy removal keeps only targets whose
                # invalidation could NOT be confirmed).
                self.join_list.discard(source)
            await self.finish_relay_unit(rid, failed=failed)
            return
        if rid in self._probes:
            # A freshness probe's peer was crashed (or its report was
            # lost): settle the probe empty so recovery tries the next
            # candidate or falls back to the stale tier.
            _settle(self._probes[rid], None)
            return
        pending = self._pending.get(rid)
        if pending is None:
            return  # late oracle for a request that already failed
        if failed:
            # A downstream relay could not invalidate a stale holder:
            # acknowledging the write would let that copy be read later.
            self.fail_pending(
                rid,
                f"write {rid}: a relayed invalidation was permanently "
                "lost; a stale copy may survive",
                degraded=True,
            )
            return
        if dropped:
            pending.crash_settled.add(source)
            if source in self._inval_targets.get(rid, ()):
                self.join_list.discard(source)
            if pending.kind == "r":
                self.fail_pending(
                    rid, f"the response to read {rid} was lost in transit"
                )
                return
        # A write's store/invalidate resolved (delivered or dropped —
        # either way the work unit is settled).
        self.finish_unit(rid, dropped=dropped)

    # -- admin plane -------------------------------------------------------

    def _handle_admin(
        self, kind: str, frame: Mapping[str, Any], conn: FrameProtocol
    ) -> None:
        try:
            reply = self._admin_reply(kind, frame)
        except ClusterError as error:
            reply = {"type": "error", "error": str(error)}
        self._reply(conn, reply)
        if kind == "shutdown" and reply.get("type") == "ok":
            self._stopped.set()

    def _admin_reply(
        self, kind: str, frame: Mapping[str, Any]
    ) -> Dict[str, Any]:
        if kind == "ping":
            return {
                "type": "pong",
                "node": self.node_id,
                "crashed": self.crashed,
                "protocol": self.protocol.name,
            }
        if kind == "metrics":
            return {"type": "metrics_report", "metrics": self.metrics.to_wire()}
        if kind == "set_peers":
            self.transport.set_peers(
                {
                    int(node): Address.parse(rendered)
                    for node, rendered in frame.get("peers", {}).items()
                }
            )
            return {"type": "ok", "op": "set_peers"}
        if kind == "fault":
            plan = frame.get("plan")
            self.transport.fault_plan = (
                FaultPlan.from_wire(plan) if plan is not None else None
            )
            return {"type": "ok", "op": "fault"}
        if kind == "resilience":
            policy = frame.get("policy")
            self.set_resilience(
                RetryPolicy.from_wire(policy) if policy is not None else None
            )
            return {"type": "ok", "op": "resilience"}
        if kind == "status":
            version = self.database.peek_version()
            return {
                "type": "status",
                "node": self.node_id,
                "crashed": self.crashed,
                "holds_valid_copy": self.database.holds_valid_copy,
                "version": version_to_wire(version),
                "join_list": sorted(self.join_list),
                "steward": self.steward,
                "scheme": sorted(self.protocol.scheme),
                "protocol": self.protocol.name,
                "durable": self.durability is not None,
                "latest_commit": self._latest_commit,
            }
        if kind == "adopt":
            if self.crashed:
                raise ClusterError(
                    f"node {self.node_id} is crashed and cannot adopt"
                )
            if bool(frame.get("steward", False)) and not self.steward:
                # Flip the flag before the membership update so the
                # journaled join record carries the steward bit.
                self.steward = True
                self._journal_join_state()
            self.join_list.update(int(n) for n in frame.get("nodes", ()))
            return {"type": "ok", "op": "adopt"}
        if kind == "set_scheme":
            members = frozenset(int(n) for n in frame.get("scheme", ()))
            self.protocol.update_scheme(members)
            if self.durability is not None:
                self.durability.log_scheme(members)
            return {"type": "ok", "op": "set_scheme"}
        if kind == "reset_metrics":
            self.reset_metrics()
            return {"type": "ok", "op": "reset_metrics"}
        if kind == "crash":
            self.crash()
            return {"type": "ok", "op": "crash"}
        if kind == "shutdown":
            return {"type": "ok", "op": "shutdown"}
        raise ClusterError(f"unknown frame type {kind!r}")

    def set_resilience(self, policy: Optional[RetryPolicy]) -> None:
        """Install (or clear) the opt-in fault-tolerance machinery."""
        self.resilience = policy
        self.transport.set_retry_policy(policy)

    # -- scheme repair -----------------------------------------------------

    async def _handle_repair_send(
        self, frame: Mapping[str, Any], conn: FrameProtocol
    ) -> None:
        """Admin: act as repair donor — copy our object to a peer.

        Replies only after the transfer settled, so the repairer can
        drive rounds synchronously.  The copy is charged as one data
        message at this node (see ``PeerTransport.send_repair``) plus
        the store I/O at the target; the donor's local read is
        uncharged, like the simulator's recovery handshakes.  Fault-free
        runs never repair, so parity is untouched."""
        target = int(frame.get("target", -1))
        rid = int(frame.get("rid", 0))
        try:
            if self.crashed:
                raise ClusterError(
                    f"repair donor {self.node_id} is crashed"
                )
            if not self.database.holds_valid_copy:
                raise ClusterError(
                    f"repair donor {self.node_id} holds no valid copy"
                )
            version = self.database.peek_version()
            pending = self.open_pending(rid, "w", units=1)
            delivered = await self.transport.send_repair(
                target, rid, version_to_wire(version)
            )
            if not delivered:
                self.fail_pending(
                    rid,
                    f"repair copy {self.node_id} -> {target} was lost "
                    "in transit",
                )
            await pending.result()
            if target in pending.crash_settled:
                raise ClusterError(
                    f"repair target {target} is crashed"
                )
            reply: Dict[str, Any] = {
                "type": "repair_report",
                "donor": self.node_id,
                "target": target,
                "version": version_to_wire(version),
            }
        except ClusterError as error:
            self._pending.pop(rid, None)
            reply = {"type": "error", "error": str(error)}
        await write_frame(conn, reply)

    async def _handle_repair_copy(self, frame: Mapping[str, Any]) -> None:
        """Peer plane: install a repair copy shipped by a donor."""
        rid = int(frame.get("rid", 0))
        donor = int(frame.get("from", -1))
        if self.crashed:
            self.metrics.dropped_messages += 1
            await self.transport.send_done(donor, rid, dropped=True)
            return
        version = version_from_wire(frame.get("version"))
        if version is None:
            raise ClusterError("a repair frame needs a 'version'")
        self.output_object(version)
        self.metrics.repairs_received += 1
        await self.transport.send_done(donor, rid)

    # -- state used by the protocol adapters -------------------------------

    def input_object(self) -> ObjectVersion:
        """Read the object from the local database (charged I/O)."""
        version = self.database.input_object()
        self.metrics.io_reads += 1
        return version

    def output_object(self, version: ObjectVersion) -> None:
        """Write the object to the local database (charged I/O).

        The WAL append rides on this already-charged ``c_io`` write —
        uncharged itself, which is what keeps fault-free parity exact
        with durability enabled."""
        self.database.output_object(version)
        self.metrics.io_writes += 1
        if self.durability is not None:
            self.durability.log_object(version)

    def invalidate_object(self) -> None:
        """Invalidate the local copy, journaled.  Protocol adapters call
        this instead of touching the database directly so a re-crash
        replays the invalidation instead of resurrecting a stale copy."""
        self.database.invalidate()
        if self.durability is not None:
            self.durability.log_invalidate()

    def open_pending(self, rid: int, kind: str, units: int) -> PendingRequest:
        if rid in self._pending:
            raise ClusterError(f"request id {rid} is already in flight here")
        pending = PendingRequest(
            rid=rid,
            kind=kind,
            units=units,
            future=asyncio.get_running_loop().create_future(),
        )
        if units <= 0:
            pending.resolve()
        else:
            self._pending[rid] = pending
        return pending

    def finish_unit(self, rid: int, dropped: bool = False) -> None:
        pending = self._pending.get(rid)
        if pending is None:
            return
        pending.units -= 1
        if pending.units <= 0:
            self._pending.pop(rid, None)
            self._inval_targets.pop(rid, None)
            pending.resolve()

    def fail_pending(self, rid: int, reason: str, degraded: bool = False) -> None:
        pending = self._pending.pop(rid, None)
        self._inval_targets.pop(rid, None)
        if degraded:
            self.metrics.degraded_rejections += 1
        if pending is not None and not pending.future.done():
            error_type = ClusterDegradedError if degraded else ClusterError
            pending.future.set_exception(error_type(reason))

    def resolve_read(
        self, rid: int, version: ObjectVersion, save: bool = False
    ) -> bool:
        """Claim an incoming DataTransfer as *this node's* read response.

        Request ids are globally unique (the load generator assigns
        them), so holding a read pending for ``rid`` is proof the
        transfer answers our own request rather than delivering a
        write's store.  Saving readers (DA) charge the output here."""
        pending = self._pending.get(rid)
        if pending is None or pending.kind != "r":
            return False
        if save:
            self.output_object(version)
        pending.version = version
        self.finish_unit(rid)
        return True

    def open_relay(
        self,
        rid: int,
        upstream: int,
        units: int,
        targets: Optional[Iterable[int]] = None,
    ) -> None:
        self._relays[rid] = _Relay(
            upstream=upstream,
            units=units,
            targets=set(targets) if targets is not None else set(),
        )

    async def finish_relay_unit(self, rid: int, failed: bool = False) -> None:
        relay = self._relays.get(rid)
        if relay is None:
            return
        relay.failed = relay.failed or failed
        relay.units -= 1
        if relay.units <= 0:
            self._relays.pop(rid, None)
            await self.transport.send_done(
                relay.upstream, rid, failed=relay.failed
            )

    # -- failures ----------------------------------------------------------

    def crash(self) -> None:
        """Fail-stop: volatile state lost, stable copy suspect.

        The WAL is deliberately *not* written to here: it must keep the
        pre-crash state, which is exactly what the fresh-rejoin recovery
        tier restores (a crash loses volatile memory, not the disk)."""
        if self.crashed:
            raise ClusterError(f"node {self.node_id} is already down")
        self.crashed = True
        mute = (
            self.durability.muted()
            if self.durability is not None
            else nullcontext()
        )
        with mute:
            self.join_list.clear()
            self.steward = False
            self.database.crash()
        self._relays.clear()
        self._inval_targets.clear()
        for rid in list(self._pending):
            self.fail_pending(rid, f"node {self.node_id} crashed")
        for future in self._probes.values():
            _settle(future, None)
        self._probes.clear()

    def recover(self) -> None:
        """Volatile rejoin; the copy stays invalid until re-read from
        the scheme (it may have missed writes), per the simulator's
        semantics.  Durable nodes recover through :meth:`recover_async`
        (the ``recover`` admin frame), which replays the log first."""
        if not self.crashed:
            raise ClusterError(f"node {self.node_id} is not down")
        self.crashed = False

    async def recover_async(self) -> Dict[str, Any]:
        """Tiered recovery; returns the ``recover`` admin reply.

        Tiers (see ``docs/durability.md``):

        * ``volatile`` — no state dir; PR 4 behavior, copy suspect.
        * ``log-fresh`` — the replayed version is still the latest
          (vouched by a peer over one control round): rejoin with the
          full journaled state and **zero data messages**.
        * ``log-stale`` — a peer holds something newer; stay invalid
          and let the ``SchemeRepairer`` copy path refresh us.
        * ``log-empty`` — nothing durable to rejoin with (same fallback).
        * ``log-unverified`` — no peer could vouch; conservatively
          treated as stale.

        Replay is charged as local I/O (``io_reads``), the probe as one
        control round trip (inquiry here, report at the peer) — never
        as data messages.  Damage (torn/corrupt tail) was already
        truncated by the WAL, so ``damaged``/``truncated_bytes`` in the
        reply report what the crash cost."""
        self.recover()  # the not-down check + volatile rejoin
        reply: Dict[str, Any] = {
            "type": "ok",
            "op": "recover",
            "node": self.node_id,
            "tier": "volatile",
        }
        if self.durability is None:
            return reply
        state = self.durability.recover()
        self.metrics.io_reads += state.replay_cost
        reply.update(
            replayed=state.replayed,
            truncated_bytes=state.truncated_bytes,
            damaged=state.damaged,
            version=version_to_wire(state.version),
        )
        if state.version is None or not state.valid:
            reply["tier"] = "log-empty" if state.version is None else "log-stale"
            self._settle_stale_recovery(state)
            return reply
        peer, peer_number = await self._probe_freshness()
        reply["probe_peer"] = peer
        reply["peer_version"] = peer_number
        if peer is None:
            reply["tier"] = "log-unverified"
            self._settle_stale_recovery(state)
            return reply
        if peer_number > state.version.number:
            reply["tier"] = "log-stale"
            self._settle_stale_recovery(state)
            return reply
        # Fresh: reinstall the journaled state as-is.  Muted — the log
        # already records exactly this state.
        with self.durability.muted():
            self.database.seed(state.version)
            self.join_list.clear()
            self.join_list.update(state.join_list)
            self.steward = state.steward
        self._latest_commit = state.latest_commit
        self.metrics.fresh_rejoins += 1
        self.durability.log_note(
            "recovered", tier="log-fresh", number=state.version.number
        )
        reply["tier"] = "log-fresh"
        return reply

    def _settle_stale_recovery(self, state) -> None:
        """The log could not prove freshness: stay invalid (``crash()``
        already wiped the volatile state) and journal that outcome, so
        a re-crash before the repair round replays reality instead of
        the stale past."""
        assert self.durability is not None
        self._latest_commit = state.latest_commit
        self.durability.log_invalidate()
        self.durability.log_join((), False)

    async def _probe_freshness(self) -> Tuple[Optional[int], Optional[int]]:
        """Ask peers to vouch for the logged version's freshness.

        Walks the protocol's candidate order (the read-failover order),
        one control round trip per attempt: a ``VersionInquiry`` out, a
        ``VersionReport`` back — message types the quorum literature's
        recovery handshake already defines (cf.
        :mod:`repro.distsim.protocols.missing_writes`: an empty log is
        revalidated at the price of a version check).  Returns
        ``(peer, version_number)`` from the first peer that holds a
        valid copy, or ``(None, None)`` when nobody can vouch."""
        loop = asyncio.get_running_loop()
        for peer in self.protocol.probe_candidates():
            self._probe_rid += 1
            rid = self._probe_rid
            future: asyncio.Future = loop.create_future()
            self._probes[rid] = future
            # An unanswered probe settles empty at the deadline.
            deadline = loop.call_later(
                self.config.exec_timeout, _settle, future, None
            )
            try:
                delivered = await self.transport.send_protocol(
                    VersionInquiry(self.node_id, peer, request_id=rid)
                )
                if not delivered:
                    continue
                report = await future
            finally:
                deadline.cancel()
                self._probes.pop(rid, None)
            if report is None:
                continue  # the peer is crashed or the report was lost
            number, holds = report
            if not holds:
                continue  # a copyless peer cannot vouch either way
            return peer, number
        return None, None

    def resolve_probe(self, message: VersionReport) -> bool:
        """Claim an incoming ``VersionReport`` as one of our probes."""
        future = self._probes.get(message.request_id)
        if future is None:
            return False
        _settle(future, (message.version_number, message.holds_copy))
        return True

    async def _handle_recover(
        self, frame: Mapping[str, Any], conn: FrameProtocol
    ) -> None:
        try:
            reply = await self.recover_async()
        except ClusterError as error:
            reply = {"type": "error", "error": str(error)}
        await write_frame(conn, reply)

    def reset_metrics(self) -> None:
        """Fresh counters (e.g. after warm-up); shared with transport."""
        self.metrics = NodeMetrics(self.node_id)
        self.transport.metrics = self.metrics
        if self.durability is not None:
            self.durability.metrics = self.metrics
