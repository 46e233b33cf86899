"""Local fleet supervisor: spawn and tend N worker-shard processes.

``repro-cluster route --spawn N`` uses this to own a whole local fleet:
each worker is a real OS process (its own GIL, its own toolchain) running
``repro-cluster worker`` with a shard id ``s0..sN-1``, a per-shard data
directory (journal + disk cache), and a port of its own.  The
supervisor knows how to wait for the fleet to come up, SIGTERM it down
(workers drain gracefully), and — with ``restart=True`` — resurrect a
worker that died, whose journal then replays its accepted jobs.

Also importable on its own: tests and benchmarks use it to stand up
multi-process fleets without the CLI.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["Supervisor", "WorkerHandle", "free_ports"]


def free_ports(count: int, host: str = "127.0.0.1") -> List[int]:
    """*count* currently-free TCP ports.

    Best-effort (another process could grab one between here and the
    worker's bind); the sockets are held open until all are chosen so
    the ports are at least distinct.
    """
    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


@dataclass
class WorkerHandle:
    """One spawned worker shard."""

    shard_id: str
    port: int
    url: str
    data_dir: str
    process: Optional[subprocess.Popen] = None
    restarts: int = 0

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None

    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None


@dataclass
class Supervisor:
    """Spawn/stop/restart a fleet of local worker shards."""

    count: int
    data_dir: str
    host: str = "127.0.0.1"
    #: extra repro-cluster worker arguments (e.g. ["--workers", "2"])
    worker_args: Sequence[str] = ()
    python: str = sys.executable
    env: Optional[Dict[str, str]] = None
    #: resurrect workers that die (their journal replays on restart)
    restart: bool = False
    workers: List[WorkerHandle] = field(default_factory=list)

    def start(self) -> List[WorkerHandle]:
        """Spawn the fleet; returns the handles (also in ``workers``)."""
        os.makedirs(self.data_dir, exist_ok=True)
        ports = free_ports(self.count, self.host)
        for index, port in enumerate(ports):
            handle = WorkerHandle(
                shard_id=f"s{index}", port=port,
                url=f"http://{self.host}:{port}",
                data_dir=self.data_dir,
            )
            self._spawn(handle)
            self.workers.append(handle)
        return self.workers

    def _spawn(self, handle: WorkerHandle) -> None:
        command = [
            self.python, "-m", "repro.cluster.cli", "worker",
            "--shard-id", handle.shard_id,
            "--host", self.host,
            "--port", str(handle.port),
            "--data-dir", handle.data_dir,
            *self.worker_args,
        ]
        handle.process = subprocess.Popen(
            command,
            env=self.env if self.env is not None else os.environ.copy(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def shard_specs(self) -> List[Tuple[str, str]]:
        """(shard id, url) pairs for a :class:`~repro.cluster.ShardTable`."""
        return [(w.shard_id, w.url) for w in self.workers]

    def wait_healthy(self, timeout_s: float = 60.0) -> None:
        """Block until every worker answers /healthz (or raise)."""
        deadline = time.monotonic() + timeout_s
        for handle in self.workers:
            while True:
                if self._healthy(handle.url):
                    break
                if not handle.alive():
                    raise RuntimeError(
                        f"worker {handle.shard_id} exited with"
                        f" {handle.process.returncode} before becoming"
                        f" healthy"
                    )
                if time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"worker {handle.shard_id} ({handle.url}) not"
                        f" healthy after {timeout_s:.0f}s"
                    )
                time.sleep(0.1)

    @staticmethod
    def _healthy(url: str) -> bool:
        try:
            with urllib.request.urlopen(url + "/healthz",
                                        timeout=2.0) as response:
                json.loads(response.read().decode("utf-8"))
                return True
        except (urllib.error.URLError, OSError, ValueError):
            return False

    def tend(self) -> int:
        """One supervision pass: restart dead workers (when enabled);
        returns how many were restarted."""
        if not self.restart:
            return 0
        restarted = 0
        for handle in self.workers:
            if not handle.alive():
                self._spawn(handle)
                handle.restarts += 1
                restarted += 1
        return restarted

    def kill(self, shard_id: str,
             sig: int = signal.SIGKILL) -> Optional[int]:
        """Send *sig* to one worker (tests/chaos); its pid or None."""
        for handle in self.workers:
            if handle.shard_id == shard_id and handle.alive():
                handle.process.send_signal(sig)
                return handle.pid
        return None

    def stop(self, timeout_s: float = 15.0) -> None:
        """SIGTERM the fleet (graceful drain), SIGKILL stragglers."""
        for handle in self.workers:
            if handle.alive():
                handle.process.terminate()
        deadline = time.monotonic() + timeout_s
        for handle in self.workers:
            if handle.process is None:
                continue
            remaining = max(0.1, deadline - time.monotonic())
            try:
                handle.process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                handle.process.kill()
                handle.process.wait(timeout=5.0)

    def __enter__(self) -> "Supervisor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
