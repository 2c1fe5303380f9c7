"""Live protocol adapters: distsim's SA/DA logic over real sockets.

The discrete-event drivers in :mod:`repro.distsim.protocols` centralize
the protocol state machine in one object that handles every node's
messages.  A live cluster cannot: each node only owns *its* volatile
state (DA join-lists) and *its* database.  The adapters below therefore
distribute the drivers' responsibilities to the nodes that own them —
the serving member records joiners, each member of ``F`` walks its own
join-list on a write — while the decision rules themselves (execution
sets, invalidation targets, store targets) are imported from the
distsim modules (:func:`~repro.distsim.protocols.da_protocol.da_execution_set`,
:func:`~repro.distsim.protocols.da_protocol.da_invalidation_targets`,
:func:`~repro.distsim.protocols.sa_protocol.sa_store_targets`), so the
two realizations can never disagree about *what* to send.

Message-for-message the traffic is identical to the simulated drivers
(same senders, same receivers, same classes), which is what makes the
end-to-end parity claim exact: live counts == simulated counts ==
stepped accounting == kernel.

Completion tracking uses uncharged ``done`` frames (the wire analogue
of the simulator's ``on_delivered`` oracle) arranged hierarchically:
the origin node awaits its direct sends; a member of ``F`` that relays
invalidations on behalf of a write acknowledges the store only after
its own invalidations are acknowledged.  Running each request to
quiescence before the next starts realizes the paper's totally-ordered
schedules exactly like the simulator does.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.distsim.messages import (
    DataTransfer,
    Invalidate,
    Message,
    ReadRequest,
    VersionInquiry,
    VersionReport,
)
from repro.distsim.protocols.da_protocol import (
    da_execution_set,
    da_invalidation_targets,
)
from repro.distsim.protocols.sa_protocol import sa_store_targets
from repro.exceptions import ClusterDegradedError, ClusterError, StorageError
from repro.storage.versions import ObjectVersion

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import NodeServer


class LiveProtocol:
    """Base of the node-side protocol adapters."""

    name = "live-abstract"

    def __init__(self, node: "NodeServer") -> None:
        self.node = node
        self.scheme = frozenset(node.config.scheme)
        if len(self.scheme) < 2:
            raise ClusterError("the initial scheme must have t >= 2 members")

    @property
    def me(self) -> int:
        return self.node.node_id

    @property
    def resilient(self) -> bool:
        """True when the node runs with a retry policy installed.

        Resilient mode changes failure *semantics* only: reads fail
        over across holders, writes reject (typed) instead of silently
        settling over a permanently lost message, and DA join-lists use
        lazy removal.  On a fault-free run every branch below reduces to
        the non-resilient behavior, message for message — asserted by
        the parity tests."""
        return self.node.resilience is not None

    def update_scheme(self, members) -> None:
        """Adopt a repaired allocation scheme (admin ``set_scheme``)."""
        raise ClusterError(
            f"{self.name} does not support scheme updates"
        )

    def probe_candidates(self) -> List[int]:
        """Peers a recovering node asks to vouch for its logged version
        (one control round trip each), in the read-failover order."""
        return sorted(self.scheme - {self.me})

    async def _handle_common(self, message: Message) -> bool:
        """Protocol-independent messages: the recovery freshness probe.

        A ``VersionInquiry`` is answered from the uncharged version peek
        (the paper prices the probe as the control round trip, not as
        I/O); a ``VersionReport`` resolves one of our own probes.
        Returns True when the message was consumed here."""
        if isinstance(message, VersionInquiry):
            version = self.node.database.peek_version()
            delivered = await self.node.transport.send_protocol(
                VersionReport(
                    self.me,
                    message.sender,
                    request_id=message.request_id,
                    version_number=(
                        version.number if version is not None else -1
                    ),
                    holds_copy=self.node.database.holds_valid_copy,
                )
            )
            if not delivered:
                # Unblock the prober so it can fail over to the next
                # candidate (the oracle plane is never faulted).
                await self.node.transport.send_done(
                    message.sender, message.request_id, dropped=True
                )
            return True
        if isinstance(message, VersionReport):
            self.node.resolve_probe(message)
            return True
        return False

    async def client_read(self, rid: int) -> ObjectVersion:
        raise NotImplementedError

    async def client_write(self, rid: int, version: ObjectVersion) -> None:
        raise NotImplementedError

    async def handle_message(self, message: Message) -> None:
        raise NotImplementedError

    # -- shared building blocks ------------------------------------------

    async def _fan_out(self, rid: int, messages: List[Message]) -> List[bool]:
        """Send concurrently; a sender-side drop of a store or an
        invalidation resolves its work unit immediately (the simulated
        network's ``on_dropped`` rule — the lost copy is moot).  In
        resilient mode a permanent drop instead *fails* the request
        typed: retries already spent their budget, so a live receiver
        missed an update it needed."""
        results = await self._send_all(messages)
        for message, delivered in zip(messages, results):
            if not delivered:
                if self.resilient:
                    self.node.fail_pending(
                        rid,
                        f"request {rid}: message to {message.receiver} "
                        "was permanently lost after retries",
                        degraded=True,
                    )
                else:
                    self.node.finish_unit(rid, dropped=True)
        return results

    async def _send_all(self, messages: List[Message]) -> List[bool]:
        """Ship messages concurrently: every send starts now, and only
        one that has to wait (a fault-plan delay, a retry backoff, a
        dial) becomes a task — so delays still reorder delivery.  The
        sends are one unit: if one fails or the caller is cancelled, the
        unfinished ones are cancelled too."""
        sends = [
            self.node.launch(self.node.transport.send_protocol(message))
            for message in messages
        ]
        try:
            return [await send for send in sends]
        except BaseException:
            for send in sends:
                if not send.done():
                    send.cancel()
                elif not send.cancelled():
                    send.exception()  # retrieved: the first error wins
            raise

    async def _remote_read(self, rid: int, servers: List[int]) -> ObjectVersion:
        """Request the object from the first answering server.

        Non-resilient callers pass exactly one candidate, reproducing
        PR 3's behavior; resilient callers pass a failover list walked
        in order, moving on when a candidate is crashed, unreachable or
        copyless.  Failover is only triggered by *settled* failures (a
        drop or a crash notification), never by slowness, so at most
        one candidate ever answers — no duplicate-response races."""
        last_error: Optional[ClusterError] = None
        for server in servers:
            pending = self.node.open_pending(rid, "r", units=1)
            delivered = await self.node.transport.send_protocol(
                ReadRequest(self.me, server, request_id=rid)
            )
            if not delivered:
                self.node.fail_pending(
                    rid,
                    f"read request from {self.me} to {server} was lost "
                    "in transit",
                )
            try:
                return await pending.result()
            except ClusterDegradedError:
                raise
            except ClusterError as error:
                last_error = error
        if last_error is not None and len(servers) == 1:
            raise last_error
        raise ClusterError(
            f"read {rid} at {self.me}: no reachable copy among "
            f"{servers} ({last_error})"
        )

    async def _serve_read(self, message: ReadRequest, save_copy: bool) -> None:
        """Input the object and ship it back to the requester."""
        try:
            version = self.node.input_object()
        except StorageError:
            # No valid local copy (e.g. freshly recovered, not yet
            # repaired): tell the reader its response is not coming so
            # it can fail over / fail fast instead of timing out.
            await self.node.transport.send_done(
                message.sender, message.request_id, dropped=True
            )
            return
        delivered = await self.node.transport.send_protocol(
            DataTransfer(
                self.me,
                message.sender,
                version=version,
                request_id=message.request_id,
                save_copy=save_copy,
            )
        )
        if not delivered:
            # The response is gone; unblock the reader so it can fail
            # fast instead of hanging (the oracle plane is never faulted).
            await self.node.transport.send_done(
                message.sender, message.request_id, dropped=True
            )


class LiveStaticAllocation(LiveProtocol):
    """SA (§4.2.1) served live: read-one-write-all over a fixed ``Q``."""

    name = "SA-live"

    def __init__(self, node: "NodeServer") -> None:
        super().__init__(node)
        self.server = min(self.scheme)

    def update_scheme(self, members) -> None:
        """SA repair grows ``Q`` to cover repaired copy holders.

        The scheme is static under the paper's normal mode; repair is
        the one (failure-mode) mutation, broadcast by the repairer so
        every node routes stores to the full post-repair scheme."""
        scheme = frozenset(int(member) for member in members)
        if len(scheme) < 2:
            raise ClusterError("the scheme must keep t >= 2 members")
        self.scheme = scheme
        self.server = min(scheme)

    async def client_read(self, rid: int) -> ObjectVersion:
        if self.me in self.scheme:
            if not self.resilient or self.node.database.holds_valid_copy:
                return self.node.input_object()
            # Resilient: a freshly recovered member serves from a live
            # peer until a repair round restores its local copy.
            candidates = sorted(self.scheme - {self.me})
        elif self.resilient:
            candidates = sorted(self.scheme)
        else:
            candidates = [self.server]
        return await self._remote_read(rid, candidates)

    async def client_write(self, rid: int, version: ObjectVersion) -> None:
        targets = sa_store_targets(self.scheme, self.me)
        pending = self.node.open_pending(rid, "w", units=len(targets))
        if self.me in self.scheme:
            self.node.output_object(version)
        try:
            await self._fan_out(
                rid,
                [
                    DataTransfer(
                        self.me, member, version=version, request_id=rid,
                        save_copy=True,
                    )
                    for member in targets
                ],
            )
            await pending.result()
        except ClusterError:
            if self.resilient and self.me in self.scheme:
                # Roll back the unacknowledged local copy so no replica
                # serves a version newer than the last acknowledged one
                # as if it were committed.
                self.node.invalidate_object()
            raise
        if (
            self.resilient
            and self.me not in self.scheme
            and targets
            and set(targets) <= pending.crash_settled
        ):
            raise ClusterDegradedError(
                f"write {rid}: every scheme member is crashed; "
                "no live replica holds the update"
            )

    async def handle_message(self, message: Message) -> None:
        if await self._handle_common(message):
            return
        if isinstance(message, ReadRequest):
            # Outsiders do not save the copy under SA.
            await self._serve_read(message, save_copy=False)
        elif isinstance(message, DataTransfer):
            if self.node.resolve_read(message.request_id, message.version):
                return  # my own read response; SA readers never save
            self.node.output_object(message.version)
            await self.node.transport.send_done(
                message.sender, message.request_id
            )
        else:
            raise ClusterError(
                f"{self.name} got unexpected {message.describe()}"
            )


class LiveDynamicAllocation(LiveProtocol):
    """DA (§4.2.2) served live: save-on-read / invalidate-on-write."""

    name = "DA-live"

    def __init__(self, node: "NodeServer") -> None:
        super().__init__(node)
        primary = node.config.primary
        if primary is None:
            primary = max(self.scheme)
        if primary not in self.scheme:
            raise ClusterError(
                f"primary {primary} is not in the scheme {sorted(self.scheme)}"
            )
        self.primary = primary
        self.core = frozenset(self.scheme - {primary})
        if not self.core:
            raise ClusterError("F must be non-empty (t >= 2)")
        self.server = min(self.core)
        if self.me == self.server:
            # The primary starts as a recorded non-core holder, exactly
            # as the simulated driver seeds the server's join-list.
            node.join_list.add(self.primary)

    def probe_candidates(self) -> List[int]:
        # Core members first (mirrors the resilient read failover), then
        # the primary — it holds a copy whenever no core member does —
        # then every other peer: a valid DA copy is always current, so
        # any holder can vouch (after a non-primary write at t = 2, the
        # lone core member's only fellow holder is that writer).
        candidates = sorted(self.core - {self.me})
        if self.primary != self.me:
            candidates.append(self.primary)
        others = set(self.node.transport.peers) - set(candidates) - {self.me}
        return candidates + sorted(others)

    async def client_read(self, rid: int) -> ObjectVersion:
        if self.node.database.holds_valid_copy:
            return self.node.input_object()
        if not self.resilient:
            return await self._remote_read(rid, [self.server])
        # Failover order: core members ascending (the first is exactly
        # the non-resilient server, keeping fault-free traffic
        # identical), then the primary — it holds a copy whenever no
        # core member does (e.g. all of F crashed and was repaired).
        candidates = sorted(self.core - {self.me})
        if self.primary != self.me:
            candidates.append(self.primary)
        return await self._remote_read(rid, candidates)

    async def client_write(self, rid: int, version: ObjectVersion) -> None:
        execution_set = da_execution_set(self.core, self.primary, self.me)
        own_targets: List[int] = []
        if self.me in self.core:
            own_targets = da_invalidation_targets(
                self.node.join_list, execution_set, self.me
            )
        stores = sorted(execution_set - {self.me})
        pending = self.node.open_pending(
            rid, "w", units=len(stores) + len(own_targets)
        )
        self.node.output_object(version)
        if self.me in self.core:
            if self.resilient:
                # Lazy discipline: a target leaves the join-list only
                # once its invalidation settles — delivered (below) or
                # the target crashed (`done dropped` via this record in
                # :meth:`NodeServer._handle_done`).  Clearing up front,
                # as the fault-free discipline may, would forget a
                # holder whose invalidation is then permanently lost.
                self.node._inval_targets[rid] = set(own_targets)
            else:
                self._restart_join_list(execution_set)
        messages: List[Message] = [
            DataTransfer(
                self.me, member, version=version, request_id=rid,
                save_copy=True,
            )
            for member in stores
        ]
        messages += [
            Invalidate(
                self.me, target, version_number=version.number, request_id=rid
            )
            for target in own_targets
        ]
        try:
            results = await self._fan_out(rid, messages)
            if self.resilient and self.me in self.core:
                for message, delivered in zip(messages, results):
                    if delivered and isinstance(message, Invalidate):
                        # On the wire to a live target: the copy there is
                        # invalid either way (the frame invalidates it, a
                        # crash would too).
                        self.node.join_list.discard(message.receiver)
                if self.me == self.server or self.node.steward:
                    # The stores just (re)validated the non-core members
                    # of the execution set — the primary, for a core
                    # writer — so record them for future invalidation,
                    # exactly as `_restart_join_list` does fault-free.
                    self.node.join_list.update(execution_set - self.core)
            await pending.result()
        except ClusterError:
            if self.resilient:
                # The update was not acknowledged; drop the local copy
                # so this node cannot serve it as if committed.
                self.node.invalidate_object()
            raise
        if self.resilient and self.me not in self.core:
            core_stores = {target for target in stores if target in self.core}
            if core_stores and core_stores <= pending.crash_settled:
                self.node.invalidate_object()
                raise ClusterDegradedError(
                    f"write {rid}: every member of F crashed during the "
                    "store; reads routed through F would miss the update"
                )

    def _restart_join_list(self, execution_set) -> None:
        """Clear the walked join-list; the serving member then records
        the new execution set's non-core holders."""
        self.node.join_list.clear()
        if self.me == self.server:
            self.node.join_list.update(execution_set - self.core)

    async def handle_message(self, message: Message) -> None:
        if await self._handle_common(message):
            return
        if isinstance(message, ReadRequest):
            if message.sender not in self.core:
                self.node.join_list.add(message.sender)
            # The reader saves the copy: a saving-read.
            await self._serve_read(message, save_copy=True)
        elif isinstance(message, DataTransfer):
            await self._handle_data_transfer(message)
        elif isinstance(message, Invalidate):
            self.node.invalidate_object()
            await self.node.transport.send_done(
                message.sender, message.request_id
            )
        else:
            raise ClusterError(
                f"{self.name} got unexpected {message.describe()}"
            )

    async def _handle_data_transfer(self, message: DataTransfer) -> None:
        rid = message.request_id
        if self.node.resolve_read(rid, message.version, save=True):
            return  # my own saving-read response (saved in resolve_read)
        # A store from a writer: output, then (members of F) walk the
        # join-list and invalidate stale holders before acknowledging.
        self.node.output_object(message.version)
        writer = message.sender
        if self.me in self.core:
            execution_set = da_execution_set(self.core, self.primary, writer)
            targets = da_invalidation_targets(
                self.node.join_list, execution_set, writer
            )
            if self.resilient:
                # Lazy discipline (see `client_write`): targets leave
                # the list per settled invalidation, never wholesale.
                # The new non-core holders are merged in immediately —
                # they hold the version being written, so forgetting
                # them would be unsafe, not conservative.
                if self.me == self.server or self.node.steward:
                    self.node.join_list.update(execution_set - self.core)
            else:
                self._restart_join_list(execution_set)
            if targets:
                self.node.open_relay(
                    rid,
                    upstream=writer,
                    units=len(targets),
                    targets=set(targets),
                )
                await self._relay_invalidations(
                    rid, message.version.number, targets
                )
                return  # the relay acknowledges upstream when drained
        await self.node.transport.send_done(writer, rid)

    async def _relay_invalidations(
        self, rid: int, version_number: int, targets: List[int]
    ) -> None:
        results = await self._send_all(
            [
                Invalidate(
                    self.me, target, version_number=version_number,
                    request_id=rid,
                )
                for target in targets
            ]
        )
        for target, delivered in zip(targets, results):
            if delivered:
                if self.resilient:
                    self.node.join_list.discard(target)
            elif self.resilient:
                # Retries exhausted on a live target: a stale valid copy
                # may survive there.  Propagate the failure upstream so
                # the writer rejects instead of acknowledging.
                await self.node.finish_relay_unit(rid, failed=True)
            else:
                await self.node.finish_relay_unit(rid)


def make_live_protocol(name: str, node: "NodeServer") -> LiveProtocol:
    """Build a live adapter by the protocol's short name."""
    key = name.strip().upper()
    if key == "SA":
        return LiveStaticAllocation(node)
    if key == "DA":
        return LiveDynamicAllocation(node)
    raise ClusterError(f"unknown live protocol {name!r}; known: SA, DA")
