"""repro.cluster — a live replica cluster serving SA/DA over sockets.

The third realization of the paper's algorithms, after the stepped
analytic model (:mod:`repro.core`) and the discrete-event simulator
(:mod:`repro.distsim`): real asyncio nodes, real length-prefixed frames
(fixed binary records on the request path, JSON for everything else)
on real TCP or Unix-domain sockets, per-node metrics that map
1:1 onto the paper's ``c_c``/``c_d``/I-O accounting.  The headline
invariant — asserted end-to-end in ``tests/integration`` — is that a
replayed trace produces *bit-identical* message and I/O totals across
all three realizations.

Fault tolerance is opt-in (:class:`~repro.cluster.resilience.RetryPolicy`
on the spec / ``--resilient`` on the CLI): at-least-once retries with
node-side dedup, read failover, typed degraded-write rejection, and a
:class:`~repro.cluster.resilience.SchemeRepairer` that restores the
paper's ``t``-availability after crashes.  Fault-free runs stay
bit-identical with or without it.  See ``docs/chaos.md``.

Durability is likewise opt-in (``state_dir`` on the spec /
``--state-dir`` on the CLI): every correctness-relevant transition is
journaled to a CRC-checksummed write-ahead log before the node acks,
compacted into snapshots, and replayed on restart through a tiered
recovery path that can rejoin a fresh node with *zero* data messages.
See ``docs/durability.md``.

See ``docs/cluster.md`` for the architecture and wire format.
"""

from repro.cluster.launcher import (
    ClusterHandle,
    ClusterSpec,
    LocalCluster,
    SubprocessCluster,
    start_cluster,
    start_local_cluster,
    start_subprocess_cluster,
)
from repro.cluster.loadgen import (
    ClusterClient,
    LoadResult,
    RequestOutcome,
    poisson_load,
    replay_schedule,
)
from repro.cluster.durability import (
    DurableState,
    NodeDurability,
    node_state_dir,
    snapshot_path,
    wal_path,
)
from repro.cluster.metrics import (
    NodeMetrics,
    aggregate,
    durability_totals,
    latency_histogram,
    resilience_totals,
)
from repro.cluster.node import NodeConfig, NodeServer
from repro.cluster.protocol import (
    LiveDynamicAllocation,
    LiveProtocol,
    LiveStaticAllocation,
    make_live_protocol,
)
from repro.cluster.resilience import (
    DedupCache,
    RepairReport,
    RetryPolicy,
    SchemeRepairer,
)
from repro.cluster.transport import Address, FaultPlan, PeerTransport

__all__ = [
    "Address",
    "ClusterClient",
    "ClusterHandle",
    "ClusterSpec",
    "DedupCache",
    "DurableState",
    "FaultPlan",
    "LiveDynamicAllocation",
    "LiveProtocol",
    "LiveStaticAllocation",
    "LoadResult",
    "LocalCluster",
    "NodeConfig",
    "NodeDurability",
    "NodeMetrics",
    "NodeServer",
    "PeerTransport",
    "RepairReport",
    "RequestOutcome",
    "RetryPolicy",
    "SchemeRepairer",
    "SubprocessCluster",
    "aggregate",
    "durability_totals",
    "latency_histogram",
    "make_live_protocol",
    "node_state_dir",
    "resilience_totals",
    "poisson_load",
    "replay_schedule",
    "snapshot_path",
    "start_cluster",
    "start_local_cluster",
    "start_subprocess_cluster",
    "wal_path",
]
