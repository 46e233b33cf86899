"""``repro-cluster`` — run the sharded evaluation fleet.

Two subcommands::

    # a router over two externally-managed shards
    repro-cluster route --port 8650 \\
        --shard s0=http://127.0.0.1:8651 --shard s1=http://127.0.0.1:8652

    # or let the router spawn and supervise its own local fleet
    repro-cluster route --port 8650 --spawn 2 --data-dir /var/lib/repro

    # one worker shard (what --spawn runs under the hood)
    repro-cluster worker --shard-id s0 --port 8651 \\
        --data-dir /var/lib/repro

The router speaks the plain ``repro-serve`` wire protocol, so
``repro-serve submit --url http://127.0.0.1:8650 ...`` works unchanged.
Both subcommands block until SIGINT/SIGTERM and then drain gracefully.

Each worker keeps its state under ``<data-dir>/<shard-id>/``: the
job journal (``journal.jsonl``, replayed on restart), the shard's disk
artifact cache (``cache/``, private to the shard), and ``worker.pid``.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
from typing import List, Optional

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cluster",
        description="Fingerprint-sharded evaluation fleet.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    route = sub.add_parser("route", help="run the cluster router")
    route.add_argument("--host", default="127.0.0.1")
    route.add_argument("--port", type=int, default=8650)
    route.add_argument("--shard", action="append", default=[],
                       metavar="[ID=]URL",
                       help="worker shard endpoint, repeatable; a bare"
                            " URL gets the id s<index>")
    route.add_argument("--spawn", type=int, default=0, metavar="N",
                       help="spawn and supervise N local worker shards"
                            " instead of joining existing ones")
    route.add_argument("--data-dir", default=None, metavar="PATH",
                       help="fleet state root (required with --spawn):"
                            " each shard keeps journal + cache under"
                            " PATH/<shard-id>/")
    route.add_argument("--probe-interval", type=float, default=1.0,
                       metavar="SECONDS")
    route.add_argument("--fail-threshold", type=int, default=2,
                       help="consecutive failed probes before a shard"
                            " is declared down and its jobs requeued")
    route.add_argument("--forward-timeout", type=float, default=60.0,
                       metavar="SECONDS")
    route.add_argument("--restart-workers", action="store_true",
                       help="with --spawn: resurrect workers that die"
                            " (their journal replays accepted jobs)")
    route.add_argument("--worker-workers", type=int, default=4,
                       metavar="N", help="threads per spawned worker")
    route.add_argument("--worker-queue-depth", type=int, default=64)

    worker = sub.add_parser("worker", help="run one worker shard")
    worker.add_argument("--shard-id", required=True,
                        help="this shard's stable identity (job-id"
                             " prefix and rendezvous label)")
    worker.add_argument("--host", default="127.0.0.1")
    worker.add_argument("--port", type=int, required=True)
    worker.add_argument("--data-dir", required=True, metavar="PATH",
                        help="state root; this shard uses"
                             " PATH/<shard-id>/")
    worker.add_argument("--workers", type=int, default=4)
    worker.add_argument("--queue-depth", type=int, default=64)
    worker.add_argument("--batch-size", type=int, default=4)
    worker.add_argument("--cache-entries", type=int, default=2048)
    worker.add_argument("--max-attempts", type=int, default=3)
    worker.add_argument("--default-timeout", type=float, default=60.0,
                        metavar="SECONDS")
    worker.add_argument("--journal-fsync", action="store_true",
                        help="fsync every journal append (durable"
                             " against power loss, slower)")
    worker.add_argument("--no-static-check", action="store_true")
    return parser


def _wait_for_signals() -> None:
    stop = threading.Event()

    def _on_signal(signum, frame):  # noqa: ARG001 — signal signature
        stop.set()

    signal.signal(signal.SIGINT, _on_signal)
    signal.signal(signal.SIGTERM, _on_signal)
    stop.wait()


# ---------------------------------------------------------------------------
# worker
# ---------------------------------------------------------------------------


def _cmd_worker(args: argparse.Namespace) -> int:
    from ..serve.http import make_server
    from ..serve.service import EvaluationService, ServiceConfig

    shard_dir = os.path.join(args.data_dir, args.shard_id)
    os.makedirs(shard_dir, exist_ok=True)
    config = ServiceConfig(
        workers=args.workers,
        max_queue_depth=args.queue_depth,
        batch_size=args.batch_size,
        cache_entries=args.cache_entries,
        disk_path=os.path.join(shard_dir, "cache"),
        max_attempts=args.max_attempts,
        default_timeout_s=args.default_timeout,
        static_check=not args.no_static_check,
        data_dir=shard_dir,
        shard_id=args.shard_id,
        journal_fsync=args.journal_fsync,
    )
    service = EvaluationService(config)
    server = make_server(service, args.host, args.port)
    pidfile = os.path.join(shard_dir, "worker.pid")
    with open(pidfile, "w", encoding="utf-8") as handle:
        handle.write(str(os.getpid()))
    print(f"repro-cluster worker {args.shard_id} listening on"
          f" {server.url} (journal: {shard_dir}/journal.jsonl)",
          flush=True)
    serving = threading.Thread(target=server.serve_forever, daemon=True)
    serving.start()
    _wait_for_signals()
    print(f"repro-cluster worker {args.shard_id}: draining...",
          flush=True)
    server.shutdown_service(drain=True)
    serving.join(timeout=10.0)
    try:
        os.unlink(pidfile)
    except OSError:
        pass
    return 0


# ---------------------------------------------------------------------------
# route
# ---------------------------------------------------------------------------


def _parse_shards(specs: List[str]) -> List["tuple[str, str]"]:
    shards = []
    for index, spec in enumerate(specs):
        shard_id, sep, url = spec.partition("=")
        if not sep:
            shard_id, url = f"s{index}", spec
        if not url.startswith(("http://", "https://")):
            raise SystemExit(f"--shard needs an http(s) URL: {spec!r}")
        shards.append((shard_id, url))
    return shards


def _cmd_route(args: argparse.Namespace) -> int:
    from .router import ClusterRouter, make_router_server
    from .shards import ShardTable

    if bool(args.spawn) == bool(args.shard):
        raise SystemExit("route needs --spawn N or --shard URL"
                         " (exactly one of them)")
    supervisor = None
    if args.spawn:
        if not args.data_dir:
            raise SystemExit("--spawn needs --data-dir")
        from .supervisor import Supervisor

        supervisor = Supervisor(
            count=args.spawn, data_dir=args.data_dir, host=args.host,
            worker_args=["--workers", str(args.worker_workers),
                         "--queue-depth",
                         str(args.worker_queue_depth)],
            restart=args.restart_workers,
        )
        supervisor.start()
        try:
            supervisor.wait_healthy()
        except Exception:
            supervisor.stop()
            raise
        shards = supervisor.shard_specs()
    else:
        shards = _parse_shards(args.shard)

    router = ClusterRouter(
        ShardTable(shards),
        probe_interval_s=args.probe_interval,
        fail_threshold=args.fail_threshold,
        forward_timeout_s=args.forward_timeout,
    )
    server = make_router_server(router, args.host, args.port)
    roster = ", ".join(f"{sid}={url}" for sid, url in shards)
    print(f"repro-cluster router listening on {server.url}"
          f" over {len(shards)} shard(s): {roster}", flush=True)

    tender: Optional[threading.Timer] = None
    if supervisor is not None and supervisor.restart:
        def _tend() -> None:
            nonlocal tender
            supervisor.tend()
            tender = threading.Timer(max(0.5, args.probe_interval),
                                     _tend)
            tender.daemon = True
            tender.start()

        _tend()

    serving = threading.Thread(target=server.serve_forever, daemon=True)
    serving.start()
    _wait_for_signals()
    print("repro-cluster router: shutting down...", flush=True)
    if tender is not None:
        tender.cancel()
    server.shutdown_router()
    serving.join(timeout=10.0)
    if supervisor is not None:
        supervisor.stop()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "worker":
        return _cmd_worker(args)
    return _cmd_route(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
