"""Live transport: peer links, addressing and fault injection.

Each node owns a :class:`PeerTransport`: one lazily-opened, long-lived
connection per peer, over which it ships charged protocol messages
(``msg`` frames) and uncharged completion notifications (``done``
frames).  Charged sends are counted by paper class at the sender —
exactly where the simulated :class:`~repro.distsim.network.Network`
charges them — so live and simulated totals are comparable unit for
unit.

Fault injection mirrors the two fault planes of the simulator:

* **node faults** (crash/recover) follow the fail-stop semantics of
  :mod:`repro.distsim.failures` and live in the node server — a crashed
  node drops incoming protocol messages and wipes its volatile state;
* **transport faults** (this module) act on the sender side of a link:
  per-link or global *delay*, deterministic or probabilistic *drop*,
  and *partition* (drop-all across groups).  Delays reorder delivery
  but never change what is charged; drops are charged to the sender and
  counted in ``dropped_messages``, matching the simulated network's
  treatment of messages addressed to dead nodes.

Only charged protocol frames are subject to transport faults.  ``done``
frames are the experimenter's completion oracle — the stand-in for the
simulator's omniscient event loop — and always get through.
"""

from __future__ import annotations

import asyncio
import functools
import random
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Mapping, Optional, Tuple

from repro.cluster.rpc import FrameProtocol, message_to_wire, write_frame
from repro.cluster.metrics import NodeMetrics
from repro.cluster.resilience import RetryPolicy
from repro.distsim.messages import Message
from repro.exceptions import ClusterError


# -- addressing ------------------------------------------------------------


@dataclass(frozen=True)
class Address:
    """Where a node listens: a TCP endpoint or a Unix-domain socket."""

    kind: str  # "tcp" | "unix"
    host: str = ""
    port: int = 0
    path: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("tcp", "unix"):
            raise ClusterError(f"unknown address kind {self.kind!r}")
        if self.kind == "unix" and not self.path:
            raise ClusterError("unix addresses need a socket path")

    def render(self) -> str:
        if self.kind == "unix":
            return f"unix:{self.path}"
        return f"tcp:{self.host}:{self.port}"

    @classmethod
    def parse(cls, text: str) -> "Address":
        kind, _, rest = text.strip().partition(":")
        if kind == "unix" and rest:
            return cls("unix", path=rest)
        if kind == "tcp":
            host, _, port = rest.rpartition(":")
            if host and port.isdigit():
                return cls("tcp", host=host, port=int(port))
        raise ClusterError(
            f"cannot parse address {text!r} "
            "(expected tcp:HOST:PORT or unix:/path.sock)"
        )


async def open_frames(address: Address, on_frame, on_close) -> FrameProtocol:
    """Connect to a node's listening address as a :class:`FrameProtocol`."""
    loop = asyncio.get_running_loop()
    factory = functools.partial(FrameProtocol, on_frame, on_close)
    if address.kind == "unix":
        _, conn = await loop.create_unix_connection(factory, address.path)
    else:
        _, conn = await loop.create_connection(factory, address.host, address.port)
    return conn


class Links:
    """One lazily dialled :class:`FrameProtocol` per node.

    Concurrent first uses of a node share a single dial.  Each
    connection comes with its reply table: a future filed there under a
    request id is resolved, in the socket callback, by the reply frame
    with that ``rid`` (0 for frames without one).  A connection that
    closes is forgotten, so the next use redials, and fails only the
    futures in its own table."""

    def __init__(self, addresses: Mapping[int, Address]) -> None:
        self.addresses = addresses
        self._conns: Dict[int, Tuple[FrameProtocol, Dict[int, asyncio.Future]]] = {}
        self._dial_lock = asyncio.Lock()

    async def get(self, node: int) -> Tuple[FrameProtocol, Dict[int, asyncio.Future]]:
        """The connection to ``node`` and its reply table."""
        link = self._conns.get(node)
        if link is not None:
            return link
        async with self._dial_lock:
            if node not in self._conns:
                if node not in self.addresses:
                    raise ClusterError(f"no address for node {node}")
                replies: Dict[int, asyncio.Future] = {}
                conn = await open_frames(
                    self.addresses[node],
                    functools.partial(_resolve, replies),
                    functools.partial(self._lost, node, replies),
                )
                self._conns[node] = (conn, replies)
            return self._conns[node]

    def drop(self, node: int, conn: FrameProtocol) -> None:
        link = self._conns.get(node)
        if link is not None and link[0] is conn:
            del self._conns[node]
        conn.close()

    def _lost(self, node: int, replies, conn: FrameProtocol) -> None:
        self.drop(node, conn)
        if conn.error is not None:
            reason = f"connection to node {node} died: {conn.error}"
        else:
            reason = f"node {node} closed the connection"
        for future in replies.values():
            if not future.done():
                future.set_exception(ClusterError(reason))

    async def close(self) -> None:
        conns = [conn for conn, _ in self._conns.values()]
        self._conns.clear()
        for conn in conns:
            conn.close()
        for conn in conns:
            await conn.wait_closed()


def _resolve(replies, frame: Mapping[str, Any], conn: FrameProtocol) -> None:
    future = replies.pop(int(frame.get("rid", 0)), None)
    if future is not None and not future.done():
        future.set_result(frame)


async def start_server(address: Address, factory) -> Tuple[Any, Address]:
    """Bind a listener serving ``factory()`` protocols; returns the
    server and the *actual* address.

    TCP addresses with port 0 are resolved to the ephemeral port the
    kernel picked, so launchers can bind first and wire peers after.
    """
    loop = asyncio.get_running_loop()
    if address.kind == "unix":
        server = await loop.create_unix_server(factory, path=address.path)
        return server, address
    server = await loop.create_server(factory, address.host, address.port)
    port = server.sockets[0].getsockname()[1]
    return server, Address("tcp", host=address.host, port=port)


# -- fault plans ----------------------------------------------------------


@dataclass
class FaultPlan:
    """Sender-side transport faults, deterministic under a seed.

    ``default_delay`` and ``link_delays`` are in seconds; ``drop_next``
    drops the next *k* messages on a link; ``drop_probability`` drops
    each message with probability p using a seeded RNG;
    ``blocked_links`` drop everything on a link; ``partitions`` groups
    node ids — messages crossing group boundaries are dropped (a node
    listed in no group is its own island).
    """

    default_delay: float = 0.0
    link_delays: Dict[Tuple[int, int], float] = field(default_factory=dict)
    blocked_links: FrozenSet[Tuple[int, int]] = frozenset()
    drop_next: Dict[Tuple[int, int], int] = field(default_factory=dict)
    drop_probability: float = 0.0
    seed: int = 0
    partitions: Tuple[FrozenSet[int], ...] = ()

    def __post_init__(self) -> None:
        if self.default_delay < 0 or any(
            delay < 0 for delay in self.link_delays.values()
        ):
            raise ClusterError("delays must be non-negative")
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ClusterError("drop_probability must be within [0, 1]")
        self._rng = random.Random(self.seed)

    def delay_for(self, sender: int, receiver: int) -> float:
        return self.link_delays.get((sender, receiver), self.default_delay)

    def _group_of(self, node_id: int):
        for index, group in enumerate(self.partitions):
            if node_id in group:
                return index
        # Unlisted nodes are their own island: a partition statement is
        # a complete description of who can reach whom.
        return ("island", node_id)

    def crosses_partition(self, sender: int, receiver: int) -> bool:
        if not self.partitions:
            return False
        return self._group_of(sender) != self._group_of(receiver)

    def should_drop(self, sender: int, receiver: int) -> bool:
        """Decide (and consume budget) whether this send is lost."""
        link = (sender, receiver)
        if link in self.blocked_links or self.crosses_partition(*link):
            return True
        remaining = self.drop_next.get(link, 0)
        if remaining > 0:
            self.drop_next[link] = remaining - 1
            return True
        if self.drop_probability > 0.0:
            return self._rng.random() < self.drop_probability
        return False

    # -- serialization (shipped in admin `fault` frames) -------------------

    def to_wire(self) -> Dict[str, Any]:
        return {
            "default_delay": self.default_delay,
            "link_delays": [
                [src, dst, delay]
                for (src, dst), delay in sorted(self.link_delays.items())
            ],
            "blocked_links": sorted(list(link) for link in self.blocked_links),
            "drop_next": [
                [src, dst, count]
                for (src, dst), count in sorted(self.drop_next.items())
            ],
            "drop_probability": self.drop_probability,
            "seed": self.seed,
            "partitions": [sorted(group) for group in self.partitions],
        }

    @classmethod
    def from_wire(cls, wire: Mapping[str, Any]) -> "FaultPlan":
        return cls(
            default_delay=float(wire.get("default_delay", 0.0)),
            link_delays={
                (int(src), int(dst)): float(delay)
                for src, dst, delay in wire.get("link_delays", [])
            },
            blocked_links=frozenset(
                (int(src), int(dst))
                for src, dst in wire.get("blocked_links", [])
            ),
            drop_next={
                (int(src), int(dst)): int(count)
                for src, dst, count in wire.get("drop_next", [])
            },
            drop_probability=float(wire.get("drop_probability", 0.0)),
            seed=int(wire.get("seed", 0)),
            partitions=tuple(
                frozenset(int(node) for node in group)
                for group in wire.get("partitions", [])
            ),
        )


# -- the per-node transport -------------------------------------------------


class PeerTransport:
    """One node's outgoing links to its peers."""

    def __init__(
        self,
        node_id: int,
        metrics: NodeMetrics,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.node_id = node_id
        self.metrics = metrics
        self.fault_plan = fault_plan
        self.retry_policy: Optional[RetryPolicy] = None
        self._retry_rng: Optional[random.Random] = None
        self.set_retry_policy(retry_policy)
        self.peers: Dict[int, Address] = {}
        self._links = Links(self.peers)

    def set_peers(self, peers: Mapping[int, Address]) -> None:
        self.peers = self._links.addresses = dict(peers)

    def set_retry_policy(self, policy: Optional[RetryPolicy]) -> None:
        """Install (or clear) at-least-once retransmission on this node."""
        self.retry_policy = policy
        self._retry_rng = policy.rng_for(self.node_id) if policy else None

    # -- the two send planes ---------------------------------------------

    async def send_protocol(self, message: Message) -> bool:
        """Charge and ship a protocol message; ``False`` if a transport
        fault swallowed it (the charge stands, mirroring the simulated
        network's sender-side accounting for doomed messages).

        With a :class:`~repro.cluster.resilience.RetryPolicy` installed
        the transmission is at-least-once: a faulted attempt backs off
        and re-sends up to the policy's budget.  Only the first attempt
        is charged by paper class — retransmissions count in
        ``retries_sent`` so faulted runs report recovery work without
        perturbing the cost-model accounting."""
        if message.sender != self.node_id:
            raise ClusterError(
                f"node {self.node_id} cannot send on behalf of "
                f"{message.sender}"
            )
        if message.receiver == self.node_id:
            raise ClusterError(
                f"{message.describe()}: a processor does not message itself "
                "(local work is I/O, not communication)"
            )
        self.metrics.charge_message(message)
        return await self._ship(message.receiver, message_to_wire(message))

    async def send_repair(
        self, peer: int, rid: int, version_wire: Mapping[str, Any]
    ) -> bool:
        """Ship a repair copy of the object to ``peer``.

        Charged as **one data message** (what the cost model prices a
        copy transfer at) and counted separately in ``repairs_sent``.
        Subject to transport faults and retries like any charged send."""
        self.metrics.data_sent += 1
        self.metrics.repairs_sent += 1
        payload = {
            "type": "repair",
            "rid": rid,
            "from": self.node_id,
            "version": dict(version_wire),
        }
        return await self._ship(peer, payload)

    async def _ship(self, receiver: int, payload: Mapping[str, Any]) -> bool:
        """One charged transmission, with the fault plan and (when a
        retry policy is installed) backoff retransmissions applied."""
        policy = self.retry_policy
        attempts = policy.attempts if policy is not None else 1
        for attempt in range(attempts):
            plan = self.fault_plan
            if plan is not None and plan.should_drop(self.node_id, receiver):
                self.metrics.dropped_messages += 1
            else:
                delay = plan.delay_for(self.node_id, receiver) if plan else 0.0
                try:
                    await self._write(receiver, payload, delay)
                    return True
                except ClusterError:
                    if policy is None:
                        raise
                    # A dead link is a lost transmission: count it and
                    # fall through to the retry path.
                    self.metrics.dropped_messages += 1
            if attempt + 1 < attempts:
                self.metrics.retries_sent += 1
                assert policy is not None and self._retry_rng is not None
                await asyncio.sleep(policy.backoff(attempt, self._retry_rng))
        return False

    async def send_done(
        self, peer: int, rid: int, dropped: bool = False, failed: bool = False
    ) -> None:
        """Ship an uncharged completion notification (never faulted).

        ``dropped`` reports a unit settled by the receiver's fail-stop
        crash; ``failed`` reports a unit that could NOT settle safely —
        a relayed invalidation permanently lost in transit — so the
        origin can reject the write instead of acknowledging it."""
        payload = {
            "type": "done",
            "rid": rid,
            "from": self.node_id,
            "dropped": dropped,
        }
        if failed:
            payload["failed"] = True
        await self._write(peer, payload, delay=0.0)

    # -- plumbing ---------------------------------------------------------

    async def _write(
        self, peer: int, payload: Mapping[str, Any], delay: float
    ) -> None:
        """Send one frame; it never waits unless a delay applies, the
        link must be dialled, or the link's buffer is full."""
        if delay > 0.0:
            await asyncio.sleep(delay)
        for attempt in (0, 1):
            conn, _ = await self._links.get(peer)
            try:
                await write_frame(conn, payload)
                return
            except (ConnectionError, OSError) as error:
                self._links.drop(peer, conn)
                if attempt:
                    raise ClusterError(
                        f"link {self.node_id} -> {peer} failed: {error}"
                    ) from error

    async def close(self) -> None:
        await self._links.close()
