"""repro.cluster — fingerprint-sharded evaluation fleet.

A :class:`ClusterRouter` speaks the exact ``repro-serve`` wire protocol
(:mod:`repro.serve.http`) but fans submissions over N worker-shard
processes.  Placement is rendezvous hashing on the **description
fingerprint** — the same key every cache layer uses — so each shard's
artifact cache stays hot for its slice of the design space
(:mod:`repro.cluster.shards`).  A :class:`HealthMonitor` probes shard
``/healthz`` endpoints and the router requeues a dead shard's in-flight
jobs to survivors, aliasing the original job ids.  Workers run the
ordinary :class:`~repro.serve.service.EvaluationService` with a durable
job journal (:mod:`repro.serve.journal`), so accepted jobs survive a
worker crash, and a disk cache of their own: routing already sends every
copy of a candidate to one shard, so that shard alone builds it.
:class:`Supervisor` spawns and tends a local fleet of worker subprocesses
(``repro-cluster route --spawn N``).
"""

from .health import HealthMonitor
from .router import (
    ClusterRouter,
    ForwardResult,
    RouterHTTPServer,
    make_router_server,
    router_in_thread,
)
from .shards import ShardInfo, ShardTable, rendezvous_rank
from .supervisor import Supervisor, WorkerHandle, free_ports

__all__ = [
    "ClusterRouter",
    "ForwardResult",
    "HealthMonitor",
    "RouterHTTPServer",
    "ShardInfo",
    "ShardTable",
    "Supervisor",
    "WorkerHandle",
    "free_ports",
    "make_router_server",
    "rendezvous_rank",
    "router_in_thread",
]
